package verbs

import (
	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// PostSendBatch posts several work requests with a single doorbell.
//
// The single-verb path (PostSend) models BlueFlame-style posting: the
// whole WQE crosses PCIe as write-combined PIO, minimizing latency. A
// batch instead writes the WQEs into the host send queue, rings one
// doorbell, and lets the NIC fetch all the WQEs with one DMA read —
// trading one non-posted PCIe round trip of latency for a large
// reduction in per-verb PIO cost. This is the standard message-rate
// technique on mlx4/mlx5 hardware and the natural next optimization
// after the paper's inlining/unsignaled ladder.
//
// Validation is atomic: if any work request is invalid, nothing is
// posted and the offending error is returned.
//
//herd:hotpath
func (qp *QP) PostSendBatch(wrs []SendWR) error {
	if len(wrs) == 0 {
		return nil
	}
	if len(wrs) == 1 {
		return qp.PostSend(wrs[0])
	}

	// Validate everything up front.
	b := qp.host.getBatch()
	b.qp = qp
	for _, wr := range wrs {
		op, err := qp.prepareOp(wr)
		if err != nil {
			// Nothing was posted: the prepared ops and the batch go
			// straight back to the pool.
			for _, op := range b.ops {
				op.release()
			}
			b.release()
			return err
		}
		b.wqeBytes += qp.host.nic.WQEBytes(qp.transport, op.inlineBytes())
		b.ops = append(b.ops, op)
	}
	for _, op := range b.ops {
		qp.opQueue.Push(op)
	}
	for _, op := range b.ops {
		qp.countPost(op.wr.Verb, len(op.payload), op.inline, op.wr.Signaled)
	}

	// One doorbell (a single MMIO word), then the NIC pulls the WQEs.
	qp.host.nic.Bus().PIOWrite(8, b.onDoorbell)
	return nil
}

// batchOp is a pooled PostSendBatch in flight: the doorbell, the WQE
// fetch, and the payload fetches of its non-inlined ops. It returns to
// the host's pool when the last of its ops is ready.
type batchOp struct {
	qp       *QP
	ops      []*sendOp
	wqeBytes int
	pending  int // payload fetches still in flight

	onDoorbell, onWQEs func(sim.Time)
}

// getBatch takes a batchOp from the host's free list, or allocates and
// binds a new one.
//
//herd:hotpath
func (h *Host) getBatch() *batchOp {
	if n := len(h.batchFree); n > 0 {
		b := h.batchFree[n-1]
		h.batchFree = h.batchFree[:n-1]
		return b
	}
	b := &batchOp{} //lint:allow hotalloc — pool growth, once per peak batch in flight
	b.onDoorbell, b.onWQEs = b.doorbellDone, b.wqesFetched
	return b
}

// release clears b and returns it to its host's free list.
//
//herd:hotpath
func (b *batchOp) release() {
	h := b.qp.host
	for i := range b.ops {
		b.ops[i] = nil
	}
	b.qp, b.ops, b.wqeBytes, b.pending = nil, b.ops[:0], 0, 0
	h.batchFree = append(h.batchFree, b)
}

// doorbellDone starts the NIC's single DMA read of the batch's WQEs.
//
//herd:hotpath
func (b *batchOp) doorbellDone(sim.Time) {
	b.qp.host.nic.Bus().DMARead(b.wqeBytes, b.onWQEs)
}

// wqesFetched fetches each non-inlined payload; inlined ops are ready
// at once.
//
//herd:hotpath
func (b *batchOp) wqesFetched(sim.Time) {
	qp := b.qp
	for _, op := range b.ops {
		if !op.inline && len(op.payload) > 0 {
			b.pending++
			op.batch = b
			qp.host.nic.Bus().DMARead(len(op.payload), op.onBatchFetch)
			continue
		}
		op.ready = true
	}
	if b.pending == 0 {
		b.release()
		qp.pump()
	}
}

// batchFetchDone marks a batched op's payload fetched; the batch's last
// fetch pumps the queue.
//
//herd:hotpath
func (op *sendOp) batchFetchDone(sim.Time) {
	b := op.batch
	op.batch = nil
	op.ready = true
	b.pending--
	if b.pending == 0 {
		qp := b.qp
		b.release()
		qp.pump()
	}
}

// prepareOp validates wr and builds its sendOp without posting it.
//
//herd:hotpath
func (qp *QP) prepareOp(wr SendWR) (*sendOp, error) {
	if qp.errored {
		return nil, ErrQPState
	}
	if !Supports(qp.transport, wr.Verb) || wr.Verb == RECV {
		return nil, ErrVerbNotSupported
	}
	var dst *QP
	switch {
	case qp.transport == wire.UD || qp.transport == wire.DC:
		if wr.Dest == nil {
			return nil, ErrNoDestination
		}
		dst = wr.Dest
	default:
		if qp.remote == nil {
			return nil, ErrNotConnected
		}
		dst = qp.remote
	}
	switch wr.Verb {
	case WRITE:
		if wr.Remote == nil || wr.RemoteOff < 0 || wr.RemoteOff+len(wr.Data) > wr.Remote.Len() {
			return nil, ErrBounds
		}
	case READ:
		if wr.Remote == nil || wr.RemoteOff < 0 || wr.Len < 0 || wr.RemoteOff+wr.Len > wr.Remote.Len() {
			return nil, ErrBounds
		}
		if wr.Local == nil || wr.LocalOff < 0 || wr.LocalOff+wr.Len > wr.Local.Len() {
			return nil, ErrBounds
		}
	}
	inline := wr.Inline && wr.Verb != READ
	if inline && len(wr.Data) > qp.host.nic.Params().InlineMax {
		return nil, ErrInlineTooLarge
	}
	op := qp.host.getOp()
	op.qp, op.dst, op.inline = qp, dst, inline
	op.wr = wr
	op.wr.Data = nil
	if wr.Verb == WRITE || wr.Verb == SEND {
		// The payload is copied at post time: the caller may reuse Data.
		op.payload = append(op.payload[:0], wr.Data...)
	}
	return op, nil
}
