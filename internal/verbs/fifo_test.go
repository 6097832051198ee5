package verbs

import (
	"runtime"
	"testing"

	"herdkv/internal/wire"
)

// TestFIFOOrderAcrossGrowth pushes and pops through wrap-around and
// growth, checking FIFO order, and that popped slots are zeroed.
func TestFIFOOrderAcrossGrowth(t *testing.T) {
	var q fifo[*int]
	vals := make([]int, 100)
	next, want := 0, 0
	for round := 0; round < 20; round++ {
		for i := 0; i < round%7+1; i++ {
			q.push(&vals[next%len(vals)])
			next++
		}
		for i := 0; i < round%5 && q.len() > 0; i++ {
			if got := q.pop(); got != &vals[want%len(vals)] {
				t.Fatalf("round %d: popped element %d, want %d", round, got, want)
			}
			want++
		}
	}
	if q.len() != next-want {
		t.Fatalf("len = %d, want %d", q.len(), next-want)
	}
	for i := 0; i < q.len(); i++ {
		if q.at(i) != &vals[(want+i)%len(vals)] {
			t.Fatalf("at(%d) out of order", i)
		}
	}
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != q.len() {
		t.Fatalf("%d non-nil slots for %d queued elements: popped slots not zeroed", live, q.len())
	}
	q.clear()
	for _, p := range q.buf {
		if p != nil {
			t.Fatal("clear left a slot set")
		}
	}
}

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
