package sim

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
)

// TestHotpathAllocFree gates the event kernel's //herd:hotpath
// functions at 0 allocs/op. The queue is grown to capacity first and
// every callback is built outside the measured closures, so what is
// measured is the kernel itself: typed heap pushes and pops, no
// interface boxing, and Server completions that carry done directly
// instead of wrapping it in a closure.
func TestHotpathAllocFree(t *testing.T) {
	e := New()
	s := NewServer(e, 2)
	for i := 0; i < 1<<10; i++ {
		e.At(Time(i), func() {})
	}
	e.Run() // leaves the heap's backing array at capacity, empty
	fn := func() {}
	done := func(Time) {}
	var h eventHeap
	for i := 0; i < 1<<10; i++ {
		h.push(event{at: Time(i), fn: fn})
	}
	h = h[:0]
	hotgate.Check(t, ".", map[string]func(){
		"Engine.At":       func() { e.At(e.Now()+Nanosecond, fn); e.Step() },
		"Engine.After":    func() { e.After(Nanosecond, fn); e.Step() },
		"Engine.schedule": func() { e.schedule(event{at: e.Now(), done: done}); e.Step() },
		"Engine.Step":     func() { e.At(e.Now(), fn); e.Step() },
		"Server.Submit":   func() { s.Submit(10*Nanosecond, done); e.Step() },
		"eventHeap.push":  func() { h.push(event{at: 1, fn: fn}); h.pop() },
		"eventHeap.pop":   func() { h.push(event{at: 2, done: done}); h.pop() },
	})
}
