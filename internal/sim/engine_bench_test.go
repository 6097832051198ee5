package sim

import "testing"

// holdModel is the classic "hold" benchmark for an event queue: a
// steady-state population of pending events, each of which, when it
// runs, reschedules itself at a random future time. One benchmark op is
// one event, so ns/op and allocs/op read as ns/event and allocs/event.
type holdModel struct {
	e      *Engine
	deltas []Time // pre-drawn random delays, cycled
	next   int
	tick   func() // bound once, so rescheduling allocates nothing
}

func newHoldModel(pending int) *holdModel {
	r := NewRand(1)
	m := &holdModel{e: New(), deltas: make([]Time, 1<<16)}
	for i := range m.deltas {
		m.deltas[i] = Time(1 + r.Int63n(int64(10*Microsecond)))
	}
	m.tick = m.run
	for i := 0; i < pending; i++ {
		m.e.After(m.delay(), m.tick)
	}
	return m
}

func (m *holdModel) delay() Time {
	d := m.deltas[m.next]
	m.next = (m.next + 1) & (len(m.deltas) - 1)
	return d
}

func (m *holdModel) run() { m.e.After(m.delay(), m.tick) }

func benchmarkHold(b *testing.B, pending int) {
	m := newHoldModel(pending)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.e.Step()
	}
}

func BenchmarkEngineHold1k(b *testing.B)  { benchmarkHold(b, 1<<10) }
func BenchmarkEngineHold64k(b *testing.B) { benchmarkHold(b, 1<<16) }

// BenchmarkEngineServerSubmit measures a Server completion loop: 1k
// jobs in flight over a 4-unit server, each completion submitting the
// next job with a non-nil done. One op is one Submit plus the event
// that completes it.
func BenchmarkEngineServerSubmit(b *testing.B) {
	e := New()
	s := NewServer(e, 4)
	r := NewRand(1)
	svc := make([]Time, 1<<12)
	for i := range svc {
		svc[i] = Time(1 + r.Int63n(int64(100*Nanosecond)))
	}
	next := 0
	var done func(Time)
	done = func(Time) {
		s.Submit(svc[next], done)
		next = (next + 1) & (len(svc) - 1)
	}
	for i := 0; i < 1<<10; i++ {
		done(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
