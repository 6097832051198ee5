package verbs

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// TestHotpathAllocFree gates the verb pipeline's //herd:hotpath
// functions at 0 allocs/op. Most stages only run inside a verb's trip
// through the model, so their gates are whole round trips — post, then
// run the engine until the verb has landed and completed — each
// covering every stage it passes through. Once the pooled records
// (sendOp, ackOp, cqeOp, batchOp, wire packets) and the ring queues
// have warmed, a round trip allocates nothing.
func TestHotpathAllocFree(t *testing.T) {
	tb := newTestbed()
	sink := telemetry.New()
	tb.a.SetTelemetry(sink)
	tb.b.SetTelemetry(sink)
	uc, _ := connectedPair(tb, wire.UC)
	rc, _ := connectedPair(tb, wire.RC)
	uda, udb := tb.a.CreateQP(wire.UD), tb.b.CreateQP(wire.UD)
	local, remote := tb.a.RegisterMR(4096), tb.b.RegisterMR(4096)
	recvMR := tb.b.RegisterMR(4096)
	remote.Watch(0, 64, func(off, n int) {})
	completions := 0
	onComp := func(Completion) { completions++ }
	for _, qp := range []*QP{uc, rc, uda, udb} {
		qp.SendCQ().SetHandler(onComp)
		qp.RecvCQ().SetHandler(onComp)
	}
	small, big := make([]byte, 32), make([]byte, 512)

	ucWrite := func() {
		_ = uc.PostSend(SendWR{Verb: WRITE, Data: small, Remote: remote, RemoteOff: 32, Inline: true})
		tb.eng.Run()
	}
	udSend := func() { // non-inlined (payload fetch), signaled (CQE)
		_ = udb.PostRecv(recvMR, 0, 1024, 1)
		_ = uda.PostSend(SendWR{Verb: SEND, Data: big, Dest: udb, Signaled: true})
		tb.eng.Run()
	}
	rcWrite := func() { // ACKed, signaled on the ACK
		_ = rc.PostSend(SendWR{Verb: WRITE, Data: small, Remote: remote, Inline: true, Signaled: true})
		tb.eng.Run()
	}
	read := func() {
		_ = rc.PostSend(SendWR{Verb: READ, Remote: remote, RemoteOff: 64, Local: local, Len: 256, Signaled: true})
		tb.eng.Run()
	}
	batch := []SendWR{
		{Verb: SEND, Data: big, Dest: udb},
		{Verb: SEND, Data: small, Dest: udb, Inline: true},
		{Verb: SEND, Data: big, Dest: udb},
	}
	sendBatch := func() {
		for i := range batch {
			_ = udb.PostRecv(recvMR, 0, 1024, uint64(i))
		}
		_ = uda.PostSendBatch(batch)
		tb.eng.Run()
	}
	hotgate.Check(t, ".", map[string]func(){
		"Supports":               func() { _ = Supports(wire.UC, READ) },
		"reliable":               func() { _ = reliable(wire.DC) },
		"damage":                 func() { damage(small, true) },
		"MR.Len":                 func() { _ = remote.Len() },
		"Host.NIC":               func() { _ = tb.a.NIC() },
		"Host.Node":              func() { _ = tb.a.Node() },
		"QP.globalKey":           func() { _ = uc.globalKey() },
		"QP.recvCtxKey":          func() { _ = uc.recvCtxKey() },
		"QP.dropInbound":         func() { udb.dropInbound() },
		"QP.PostRecv":            func() { _ = udb.PostRecv(recvMR, 0, 64, 9); udb.popRecv() },
		"QP.popRecv":             func() { _ = udb.PostRecv(recvMR, 0, 64, 9); udb.popRecv() },
		"Host.getOp":             ucWrite,
		"QP.PostSend":            ucWrite,
		"QP.prepareOp":           ucWrite,
		"QP.countPost":           ucWrite,
		"QP.pump":                ucWrite,
		"QP.issue":               ucWrite,
		"QP.orderedAfter":        ucWrite,
		"QP.deliverWrite":        ucWrite,
		"MR.landed":              ucWrite,
		"sendOp.inlineBytes":     ucWrite,
		"sendOp.pioDone":         ucWrite,
		"sendOp.txPUDone":        ucWrite,
		"sendOp.transmit":        ucWrite,
		"sendOp.arrived":         ucWrite,
		"sendOp.rxPUDone":        ucWrite,
		"sendOp.rxGateOpen":      ucWrite,
		"sendOp.land":            ucWrite,
		"sendOp.release":         ucWrite,
		"sendOp.fetchDone":       udSend,
		"QP.deliverSend":         udSend,
		"QP.localSendComplete":   udSend,
		"QP.signalCompletion":    udSend,
		"cqeOp.written":          udSend,
		"CQ.push":                udSend,
		"QP.sendAck":             rcWrite,
		"ackOp.txPUDone":         rcWrite,
		"ackOp.arrived":          rcWrite,
		"ackOp.rxPUDone":         rcWrite,
		"sendOp.readReqArrived":  read,
		"QP.deliverReadRequest":  read,
		"sendOp.readFetched":     read,
		"sendOp.readRespArrived": read,
		"sendOp.readRespPUDone":  read,
		"QP.PostSendBatch":       sendBatch,
		"Host.getBatch":          sendBatch,
		"batchOp.doorbellDone":   sendBatch,
		"batchOp.wqesFetched":    sendBatch,
		"batchOp.release":        sendBatch,
		"sendOp.batchFetchDone":  sendBatch,
	})
	if completions == 0 {
		t.Fatal("no completions: the round trips did not run")
	}
}
