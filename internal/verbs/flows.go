package verbs

import (
	"fmt"

	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// sendOp is one posted work request moving through the model:
// requester PIO (doorbell + inline WQE) -> optional payload DMA fetch ->
// NIC processing -> tx gate -> wire -> responder NIC processing -> rx
// gate -> DMA landing (a READ continues with the responder's DMA read,
// the response on the wire, and the landing at the requester). Per-QP
// ordering is strict FIFO, and a QP with ReadWindow outstanding READs
// stalls (the RNIC fences its send queue), which is the paper's "each
// queue pair can only service a few outstanding READ requests".
//
// Records are pooled per posting Host. Each stage callback is a method
// value bound once, when the record is first allocated, so a verb's
// trip through the model allocates nothing. A record has one owner at
// a time — whichever stage's event is pending — and exactly one release
// point: land, after the payload (or, for a READ, the response) is
// copied into host memory. Paths that end a verb early (a dropped
// packet, a SEND with no RECV, an errored QP, a flushed queue) do not
// release it: a flushed op may still have a PIO or fetch event pending
// that touches it, and a dropped one is simply never seen again, so
// those records are left to the garbage collector.
type sendOp struct {
	qp      *QP // the posting (requester) queue pair
	dst     *QP
	wr      SendWR // Data is cleared; the payload lives in payload
	payload []byte // owned copy of wr.Data; a READ's fetched bytes
	inline  bool
	ready   bool
	lat     sim.Time // context-miss latency of the next gate hop
	rb      recvBuf  // SEND, WRITE-with-immediate: the consumed RECV
	batch   *batchOp // PostSendBatch: the batch whose fetch this awaits
	free    bool     // in the host's free list

	onPIO, onFetch, onBatchFetch     func(sim.Time)
	onTxPU, onRxPU, onLand           func(sim.Time)
	onReadReq, onReadDMA, onReadResp func(sim.Time)
	onReadRespPU                     func(sim.Time)
	onTransmit, onRxGate             func()
	onArrive                         func(wire.Delivery)
}

// getOp takes a sendOp from the host's free list, or allocates and
// binds a new one.
//
//herd:hotpath
func (h *Host) getOp() *sendOp {
	if n := len(h.opFree); n > 0 {
		op := h.opFree[n-1]
		h.opFree[n-1] = nil
		h.opFree = h.opFree[:n-1]
		op.free = false
		return op
	}
	return newSendOp() //lint:allow hotalloc — pool growth: the free list fills to the peak verbs in flight once
}

// newSendOp allocates a record and binds its stage callbacks.
func newSendOp() *sendOp {
	op := &sendOp{}
	op.onPIO = op.pioDone
	op.onFetch = op.fetchDone
	op.onBatchFetch = op.batchFetchDone
	op.onTxPU = op.txPUDone
	op.onRxPU = op.rxPUDone
	op.onLand = op.land
	op.onReadReq = op.readReqArrived
	op.onReadDMA = op.readFetched
	op.onReadResp = op.readRespArrived
	op.onReadRespPU = op.readRespPUDone
	op.onTransmit = op.transmit
	op.onRxGate = op.rxGateOpen
	op.onArrive = op.arrived
	return op
}

// release returns op to its posting host's free list. It runs once per
// record lifetime, from land.
//
//herd:hotpath
func (op *sendOp) release() {
	if op.free {
		panic("verbs: sendOp released twice")
	}
	h := op.qp.host
	op.free = true
	op.qp, op.dst = nil, nil
	op.wr = SendWR{}
	op.payload = op.payload[:0]
	op.ready = false
	op.rb = recvBuf{}
	op.batch = nil
	h.opFree = append(h.opFree, op)
}

// PostSend posts wr to the queue pair's send queue. Validation errors
// are returned synchronously; the operation itself proceeds in virtual
// time.
//
//herd:hotpath
func (qp *QP) PostSend(wr SendWR) error {
	op, err := qp.prepareOp(wr)
	if err != nil {
		return fmt.Errorf("verbs: %v on %v: %w", wr.Verb, qp.transport, err) //lint:allow hotalloc — rejected post, not the steady state
	}
	qp.opQueue.Push(op)
	qp.countPost(op.wr.Verb, len(op.payload), op.inline, op.wr.Signaled)

	n := qp.host.nic
	n.Bus().PIOWrite(n.WQEBytes(qp.transport, op.inlineBytes()), op.onPIO)
	return nil
}

// inlineBytes is the payload the WQE itself carries.
//
//herd:hotpath
func (op *sendOp) inlineBytes() int {
	if op.inline {
		return len(op.payload)
	}
	return 0
}

// pioDone runs when the WQE has crossed PCIe: a non-inlined payload is
// then fetched from host memory by DMA before the op can issue.
//
//herd:hotpath
func (op *sendOp) pioDone(at sim.Time) {
	op.wr.Trace.Mark("pio", at)
	if !op.inline && len(op.payload) > 0 {
		op.qp.host.nic.Bus().DMARead(len(op.payload), op.onFetch)
		return
	}
	op.ready = true
	op.qp.pump()
}

// fetchDone runs when a non-inlined payload has reached the NIC.
//
//herd:hotpath
func (op *sendOp) fetchDone(at sim.Time) {
	op.wr.Trace.Mark("fetch", at)
	op.ready = true
	op.qp.pump()
}

// pump issues ready head-of-queue operations in order, respecting the
// READ window fence.
//
//herd:hotpath
func (qp *QP) pump() {
	if qp.errored {
		return // SetError already flushed the queue
	}
	for qp.opQueue.Len() > 0 {
		op := qp.opQueue.Front()
		if !op.ready {
			return
		}
		if op.wr.Verb == READ && qp.outstandingReads >= qp.host.nic.Params().ReadWindow {
			return
		}
		qp.opQueue.Pop()
		if op.wr.Verb == READ {
			qp.outstandingReads++
		}
		qp.issue(op)
	}
}

// issue runs the NIC processing for op; transmit hands it to the wire.
//
//herd:hotpath
func (qp *QP) issue(op *sendOp) {
	n := qp.host.nic
	p := n.Params()

	puExtra, latExtra := n.TouchSendCtx(qp.globalKey())
	work := puExtra
	switch op.wr.Verb {
	case READ:
		work += p.TxReadReq
	default:
		work += p.TxWQE
	}
	if reliable(qp.transport) {
		work += p.RCReqExtra
	}
	if qp.transport == wire.DC && op.dst != qp.lastDest {
		// DC initiators re-target with an in-band connect handshake.
		work += p.DCRetargetPU
		qp.lastDest = op.dst
	}
	if !op.inline && len(op.payload) > 0 {
		work += p.NonInlineExtra
	}
	// READ completion state is integral to the verb (the response drives
	// it); SignaledExtra models the send-side CQE machinery that
	// selective signaling elides for WRITE/SEND.
	if op.wr.Signaled && op.wr.Verb != READ {
		work += p.SignaledExtra
	}

	op.lat = latExtra
	n.PU(work, op.onTxPU)
}

// txPUDone passes the requester's processing through the QP's tx gate.
//
//herd:hotpath
func (op *sendOp) txPUDone(sim.Time) {
	op.qp.orderedAfter(&op.qp.txGate, op.lat, op.onTransmit)
}

// orderedAfter schedules fn at now+delay, but never before the gate's
// previous schedule; the gate advances so per-QP order is preserved even
// when one verb stalls on a context fetch and the next does not.
//
//herd:hotpath
func (qp *QP) orderedAfter(gate *sim.Time, delay sim.Time, fn func()) {
	eng := qp.host.eng
	at := eng.Now() + delay
	if at < *gate {
		at = *gate
	}
	*gate = at
	eng.At(at, fn)
}

// transmit puts op on the wire. A WRITE or SEND completes locally as it
// leaves (unreliable transports) or queues for its ACK (RC); a READ
// request carries only headers plus an RETH (16 B).
//
//herd:hotpath
func (op *sendOp) transmit() {
	qp := op.qp
	n := qp.host.nic
	src, dstNode := n.Node(), op.dst.host.Node()
	net := n.Net()
	op.wr.Trace.Mark("nic", qp.host.eng.Now())

	switch op.wr.Verb {
	case WRITE, SEND:
		net.SendData(src, dstNode, qp.transport, len(op.payload), op.onArrive)
		qp.localSendComplete(op)
	case READ:
		net.SendWire(src, dstNode, net.Params().Header(qp.transport)+16, op.onReadReq)
	}
}

// arrived hands a WRITE or SEND packet to the responder QP.
//
//herd:hotpath
func (op *sendOp) arrived(d wire.Delivery) {
	damage(op.payload, d.Corrupt)
	if op.wr.Verb == WRITE {
		op.dst.deliverWrite(op)
		return
	}
	op.dst.deliverSend(op)
}

// damage models an injected corruption burst on a delivered payload, in
// place: the trailing 16 bytes (a keyhash, in HERD's slot formats) are
// zeroed and the rest is bit-flipped. The transform is deterministic so
// corrupted runs replay exactly; intact deliveries leave the payload
// untouched. Applications detect the damage structurally — HERD's
// keyhash-nonzero and length checks reject such requests, and its
// response status check discards such responses.
//
//herd:hotpath
func damage(payload []byte, corrupt bool) {
	if !corrupt {
		return
	}
	tail := len(payload) - 16
	if tail < 0 {
		tail = 0
	}
	for i := range payload {
		if i < tail {
			payload[i] ^= 0x5a
		} else {
			payload[i] = 0
		}
	}
}

// localSendComplete finishes the requester side of a WRITE or SEND. On
// unreliable transports the verb completes as soon as it is on the wire;
// on RC, completion waits for the responder's ACK.
//
//herd:hotpath
func (qp *QP) localSendComplete(op *sendOp) {
	if reliable(qp.transport) {
		qp.awaitingAck.Push(pendingAck{
			wrid: op.wr.WRID, verb: op.wr.Verb, signaled: op.wr.Signaled,
			bytes: len(op.payload), trace: op.wr.Trace,
		})
		return
	}
	if op.wr.Signaled {
		qp.signalCompletion(op.wr.WRID, op.wr.Verb, len(op.payload), op.wr.Trace)
	}
}

// cqeOp is a pooled send-side completion in flight: the CQE's DMA write
// to host memory. It is released when the write lands.
type cqeOp struct {
	qp    *QP
	wrid  uint64
	verb  Verb
	bytes int
	trace *telemetry.Trace
	onDMA func(sim.Time)
}

// signalCompletion DMA-writes a CQE to host memory and pushes the
// completion to the send CQ.
//
//herd:hotpath
func (qp *QP) signalCompletion(wrid uint64, verb Verb, bytes int, tr *telemetry.Trace) {
	h := qp.host
	var c *cqeOp
	if k := len(h.cqeFree); k > 0 {
		c = h.cqeFree[k-1]
		h.cqeFree = h.cqeFree[:k-1]
	} else {
		c = &cqeOp{} //lint:allow hotalloc — pool growth, once per peak completion in flight
		c.onDMA = c.written
	}
	c.qp, c.wrid, c.verb, c.bytes, c.trace = qp, wrid, verb, bytes, tr
	n := h.nic
	n.Bus().DMAWrite(n.Params().CQEBytes, c.onDMA)
}

// written pushes the completion once its CQE is in host memory.
//
//herd:hotpath
func (c *cqeOp) written(at sim.Time) {
	qp, tr := c.qp, c.trace
	comp := Completion{QPN: qp.qpn, WRID: c.wrid, Verb: c.verb, Bytes: c.bytes, At: at}
	c.qp, c.trace = nil, nil
	qp.host.cqeFree = append(qp.host.cqeFree, c)
	tr.Mark("cqe", at)
	qp.host.telCompleted[comp.Verb].Inc()
	qp.sendCQ.push(comp)
}

// deliverWrite handles an inbound WRITE at the responder NIC: context
// lookup, processing, DMA of the payload into the target region, and an
// ACK if the transport is reliable. The responder CPU is not involved
// (memory semantics) — except for WRITE-with-immediate, which also
// consumes a RECV and raises a completion carrying the immediate.
//
//herd:hotpath
func (qp *QP) deliverWrite(op *sendOp) {
	if qp.errored {
		qp.dropInbound()
		return
	}
	n := qp.host.nic
	p := n.Params()
	op.wr.Trace.Mark("wire", qp.host.eng.Now())
	puExtra, latExtra := n.TouchRecvCtx(qp.recvCtxKey())
	work := p.RxWrite + puExtra
	if reliable(qp.transport) {
		work += p.RCRespExtra
	}
	op.lat = latExtra
	n.PU(work, op.onRxPU)
}

// deliverSend handles an inbound SEND: it consumes the head RECV, DMAs
// payload and CQE to host memory, and completes on the recv CQ (channel
// semantics — the responder CPU posted the RECV and will poll the CQE).
//
//herd:hotpath
func (qp *QP) deliverSend(op *sendOp) {
	if qp.errored {
		qp.dropInbound()
		return
	}
	n := qp.host.nic
	p := n.Params()
	op.wr.Trace.Mark("wire", qp.host.eng.Now())
	puExtra, latExtra := n.TouchRecvCtx(qp.recvCtxKey())
	work := p.RxSend + puExtra
	if reliable(qp.transport) {
		work += p.RCRespExtra
	}
	op.lat = latExtra
	n.PU(work, op.onRxPU)
}

// deliverReadRequest services an inbound READ at the responder NIC: a
// non-posted DMA read of the requested bytes from host memory, then the
// response packet. Again no responder CPU involvement.
//
//herd:hotpath
func (qp *QP) deliverReadRequest(op *sendOp) {
	if qp.errored {
		qp.dropInbound()
		return
	}
	n := qp.host.nic
	p := n.Params()
	op.wr.Trace.Mark("wire", qp.host.eng.Now())
	puExtra, latExtra := n.TouchRecvCtx(qp.recvCtxKey())
	op.lat = latExtra
	n.PU(p.RxReadReq+puExtra, op.onRxPU)
}

// readReqArrived hands a READ request packet to the responder QP.
//
//herd:hotpath
func (op *sendOp) readReqArrived(sim.Time) { op.dst.deliverReadRequest(op) }

// dropInbound counts an inbound verb discarded at the responder.
//
//herd:hotpath
func (qp *QP) dropInbound() {
	qp.droppedSends++
	qp.host.telDropped.Inc()
}

// rxPUDone passes the responder's processing through the QP's rx gate.
//
//herd:hotpath
func (op *sendOp) rxPUDone(sim.Time) {
	op.dst.orderedAfter(&op.dst.rxGate, op.lat, op.onRxGate)
}

// rxGateOpen starts the responder's host-memory access: the payload's
// DMA write for a WRITE or SEND (consuming a RECV when the verb needs
// one, and ACKing on RC), the requested bytes' DMA read for a READ.
//
//herd:hotpath
func (op *sendOp) rxGateOpen() {
	qp := op.dst
	n := qp.host.nic
	p := n.Params()
	switch op.wr.Verb {
	case READ:
		n.Bus().DMARead(op.wr.Len, op.onReadDMA)
		return
	case SEND:
		rb, ok := qp.popRecv()
		if !ok {
			qp.dropInbound()
			return
		}
		op.rb = rb
		if len(op.payload) > rb.len {
			op.payload = op.payload[:rb.len]
		}
		n.Bus().DMAWrite(len(op.payload)+p.CQEBytes, op.onLand)
	default: // WRITE
		cqe := 0
		if op.wr.HasImm {
			rb, ok := qp.popRecv()
			if !ok {
				// No RECV: the whole message is dropped.
				qp.dropInbound()
				return
			}
			op.rb = rb
			cqe = p.CQEBytes
		}
		n.Bus().DMAWrite(len(op.payload)+cqe, op.onLand)
	}
	if reliable(qp.transport) {
		qp.sendAck(op.qp)
	}
}

// readFetched sends a READ's bytes back once the responder's DMA read
// returns. They are snapshotted into the op's buffer here, as the wire
// would carry them.
//
//herd:hotpath
func (op *sendOp) readFetched(at sim.Time) {
	op.wr.Trace.Mark("dma", at)
	wr := &op.wr
	op.payload = append(op.payload[:0], wr.Remote.buf[wr.RemoteOff:wr.RemoteOff+wr.Len]...)
	n := op.dst.host.nic
	n.Net().Send(n.Node(), op.qp.host.Node(), op.dst.transport, wr.Len, op.onReadResp)
}

// readRespArrived lands READ data at the requester: processing, then a
// DMA of payload (plus CQE if signaled) into the local region.
//
//herd:hotpath
func (op *sendOp) readRespArrived(sim.Time) {
	qp := op.qp
	if qp.errored {
		return // the READ was flushed in error at crash time
	}
	op.wr.Trace.Mark("resp-wire", qp.host.eng.Now())
	n := qp.host.nic
	n.PU(n.Params().RxReadResp, op.onReadRespPU)
}

// readRespPUDone starts the READ response's DMA write.
//
//herd:hotpath
func (op *sendOp) readRespPUDone(sim.Time) {
	n := op.qp.host.nic
	bytes := len(op.payload)
	if op.wr.Signaled {
		bytes += n.Params().CQEBytes
	}
	n.Bus().DMAWrite(bytes, op.onLand)
}

// land is the op's final stage and its single release point: the
// payload is in host memory. A WRITE lands in the target region (and
// wakes its watchers), a SEND in the consumed RECV's buffer, a READ's
// response in the requester's local region, releasing its window slot.
//
//herd:hotpath
func (op *sendOp) land(at sim.Time) {
	wr := &op.wr
	switch wr.Verb {
	case WRITE:
		qp := op.dst
		wr.Trace.Mark("dma", at)
		copy(wr.Remote.buf[wr.RemoteOff:wr.RemoteOff+len(op.payload)], op.payload)
		wr.Remote.landed(wr.RemoteOff, len(op.payload))
		if wr.HasImm {
			qp.host.telCompleted[RECV].Inc()
			qp.recvCQ.push(Completion{
				QPN: qp.qpn, WRID: op.rb.wrid, Verb: RECV,
				Bytes: len(op.payload), At: at,
				SrcQPN: op.qp.qpn, ImmDeliv: true, Imm: wr.Imm,
				Trace: wr.Trace,
			})
		}
	case SEND:
		qp, rb, m := op.dst, op.rb, len(op.payload)
		wr.Trace.Mark("recv", at)
		copy(rb.mr.buf[rb.off:rb.off+m], op.payload)
		qp.host.telCompleted[RECV].Inc()
		qp.recvCQ.push(Completion{
			QPN: qp.qpn, WRID: rb.wrid, Verb: RECV, Bytes: m, At: at,
			Data: rb.mr.buf[rb.off : rb.off+m], SrcQPN: op.qp.qpn,
			Trace: wr.Trace,
		})
	case READ:
		qp := op.qp
		wr.Trace.Mark("cqe", at)
		copy(wr.Local.buf[wr.LocalOff:wr.LocalOff+wr.Len], op.payload)
		if wr.Signaled {
			qp.host.telCompleted[READ].Inc()
			qp.sendCQ.push(Completion{
				QPN: qp.qpn, WRID: wr.WRID, Verb: READ, Bytes: wr.Len, At: at,
			})
		}
		qp.outstandingReads--
		qp.pump()
	}
	op.release()
}

// ackOp is a pooled RC acknowledgement in flight: responder processing,
// the wire, and requester processing. It returns to the responder
// host's pool when the requester has processed it; a dropped ACK is
// left to the garbage collector.
type ackOp struct {
	from, to                 *QP // responder, requester
	onTxPU, onArrive, onRxPU func(sim.Time)
}

// sendAck emits an RC acknowledgement back to the requester.
//
//herd:hotpath
func (qp *QP) sendAck(src *QP) {
	h := qp.host
	var a *ackOp
	if k := len(h.ackFree); k > 0 {
		a = h.ackFree[k-1]
		h.ackFree = h.ackFree[:k-1]
	} else {
		a = &ackOp{} //lint:allow hotalloc — pool growth, once per peak ACK in flight
		a.onTxPU, a.onArrive, a.onRxPU = a.txPUDone, a.arrived, a.rxPUDone
	}
	a.from, a.to = qp, src
	h.nic.PU(h.nic.Params().TxAck, a.onTxPU)
}

// txPUDone puts the ACK on the wire.
//
//herd:hotpath
func (a *ackOp) txPUDone(sim.Time) {
	n := a.from.host.nic
	n.Net().SendWire(n.Node(), a.to.host.Node(), n.Net().Params().HdrAck, a.onArrive)
}

// arrived runs the requester's ACK processing.
//
//herd:hotpath
func (a *ackOp) arrived(sim.Time) {
	n := a.to.host.nic
	n.PU(n.Params().RxAck, a.onRxPU)
}

// rxPUDone completes the oldest un-ACKed RC WRITE/SEND at the requester
// (RC delivers strictly in order).
//
//herd:hotpath
func (a *ackOp) rxPUDone(sim.Time) {
	qp, h := a.to, a.from.host
	a.from, a.to = nil, nil
	h.ackFree = append(h.ackFree, a)
	if qp.errored || qp.awaitingAck.Len() == 0 {
		return
	}
	pa := qp.awaitingAck.Pop()
	if pa.signaled {
		qp.signalCompletion(pa.wrid, pa.verb, pa.bytes, pa.trace)
	}
}
