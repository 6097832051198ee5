// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock (picosecond resolution) through a
// priority queue of events. Everything in the RDMA model — PCIe transfers,
// NIC processing, wire serialization, CPU service — is expressed as events
// and resources on a single engine, so experiment runs are exactly
// reproducible for a given seed and parameter set.
package sim

// Time is a point in virtual time, in picoseconds. Picosecond resolution
// keeps sub-nanosecond service times (e.g. 28.6 ns per inbound WRITE at
// 35 Mops) exact over billions of operations.
type Time int64

// Duration constants for virtual time.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// NS converts a nanosecond count to a Time.
func NS(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// event is one scheduled callback. Exactly one of fn and done is set:
// done is a Server completion, which receives the event's own time
// (a job's end always equals the instant its completion runs), so
// Submit needs no closure to carry it.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	fn   func()
	done func(end Time)
}

// before reports whether a runs ahead of b: earlier time first, then
// earlier scheduling.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). Holding
// event values in a typed slice, rather than going through
// container/heap, keeps every push and pop free of interface boxing.
// (at, seq) is a total order, so the pop sequence does not depend on
// the heap's shape.
type eventHeap []event

// heapArity is the heap's fan-out. On BenchmarkEngine* a 4-ary heap
// matched or slightly beat a binary one at half the depth.
const heapArity = 4

//herd:hotpath
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed so the backing array does not keep a finished callback, and
// everything it captures, reachable.
//
//herd:hotpath
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[best]) {
				best = j
			}
		}
		if !q[best].before(&last) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
	return top
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; the entire model
// runs on one goroutine.
type Engine struct {
	now  Time
	heap eventHeap
	seq  uint64
	ran  uint64
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many events are scheduled but not yet run.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) runs the event at the current time instead; events at equal
// times run in scheduling order.
//
//herd:hotpath
func (e *Engine) At(t Time, fn func()) { e.schedule(event{at: t, fn: fn}) }

// After schedules fn to run d after the current time.
//
//herd:hotpath
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// schedule clamps ev to now, stamps its sequence number and queues it.
//
//herd:hotpath
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.heap.push(ev)
}

// Step runs the earliest pending event, advancing the clock to it.
// It reports whether an event was run.
//
//herd:hotpath
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.ran++
	if ev.done != nil {
		ev.done(ev.at)
	} else {
		ev.fn()
	}
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond the deadline stay pending.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
