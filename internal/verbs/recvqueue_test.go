package verbs

import (
	"runtime"
	"testing"

	"herdkv/internal/wire"
)

// TestConsumedRecvReleasesMR checks that a consumed RECV no longer pins
// its memory region: the receive queues are rings that zero a popped
// slot, where re-slicing a queue's front would leave the popped buffer
// (and its MR) reachable from the backing array for as long as the QP
// lives. Both the per-QP queue and an SRQ are checked.
func TestConsumedRecvReleasesMR(t *testing.T) {
	for _, viaSRQ := range []bool{false, true} {
		tb := newTestbed()
		qa, qb := tb.a.CreateQP(wire.UD), tb.b.CreateQP(wire.UD)
		qb.RecvCQ().SetHandler(func(Completion) {})
		post := qb.PostRecv
		if viaSRQ {
			srq := tb.b.CreateSRQ()
			qb.AttachSRQ(srq)
			post = srq.PostRecv
		}
		freed := make(chan struct{})
		func() {
			mr := tb.b.RegisterMR(1 << 16)
			runtime.SetFinalizer(mr, func(*MR) { close(freed) })
			if err := post(mr, 0, 256, 1); err != nil {
				t.Fatal(err)
			}
		}()
		// A second RECV stays queued behind the consumed one.
		if err := post(tb.b.RegisterMR(256), 0, 256, 2); err != nil {
			t.Fatal(err)
		}
		if err := qa.PostSend(SendWR{Verb: SEND, Data: []byte("consume"), Dest: qb, Inline: true}); err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		released := false
		for i := 0; i < 100 && !released; i++ {
			runtime.GC()
			runtime.Gosched() // let the finalizer goroutine run
			select {
			case <-freed:
				released = true
			default:
			}
		}
		if !released {
			t.Fatalf("viaSRQ=%v: consumed RECV's MR still reachable from the queue", viaSRQ)
		}
		runtime.KeepAlive(qb)
	}
}
