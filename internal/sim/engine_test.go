package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New()
	var fired Time = -1
	e.After(5*Microsecond, func() { fired = e.Now() })
	e.Run()
	if fired != 5*Microsecond {
		t.Fatalf("event fired at %v, want 5us", fired)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("clock = %v, want 5us", e.Now())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: order=%v", order)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := New()
	var fired Time = -1
	e.At(100*Nanosecond, func() {
		e.At(50*Nanosecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 100*Nanosecond {
		t.Fatalf("past event fired at %v, want clamp to 100ns", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			e.After(Nanosecond, step)
		}
	}
	e.After(0, step)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*Nanosecond {
		t.Fatalf("clock = %v, want 99ns", e.Now())
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := New()
	ran := 0
	e.At(10*Nanosecond, func() { ran++ })
	e.At(20*Nanosecond, func() { ran++ })
	e.At(30*Nanosecond, func() { ran++ })
	e.RunUntil(20 * Nanosecond)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if e.Now() != 20*Nanosecond {
		t.Fatalf("clock = %v, want 20ns", e.Now())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("after Run, ran = %d, want 3", ran)
	}
}

func TestRunForRelativeWindow(t *testing.T) {
	e := New()
	e.At(5*Nanosecond, func() {})
	e.RunUntil(5 * Nanosecond)
	ran := false
	e.At(9*Nanosecond, func() { ran = true })
	e.RunFor(4 * Nanosecond)
	if !ran {
		t.Fatal("event within RunFor window did not run")
	}
	if e.Now() != 9*Nanosecond {
		t.Fatalf("clock = %v, want 9ns", e.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 42; i++ {
		e.After(Time(i)*Nanosecond, func() {})
	}
	e.Run()
	if e.Processed() != 42 {
		t.Fatalf("Processed = %d, want 42", e.Processed())
	}
}

// Property: for any set of timestamps, events fire in sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := New()
		var fired []Time
		for _, s := range stamps {
			at := Time(s) * Nanosecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		want := make([]Time, len(stamps))
		for i, s := range stamps {
			want[i] = Time(s) * Nanosecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if (2500 * Nanosecond).Microseconds() != 2.5 {
		t.Fatalf("2500ns = %v us, want 2.5", (2500 * Nanosecond).Microseconds())
	}
	if NS(28.6) != 28600*Picosecond {
		t.Fatalf("NS(28.6) = %d ps, want 28600", NS(28.6))
	}
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
}

func TestServerFIFOSingleUnit(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Submit(10*Nanosecond, func(end Time) { ends = append(ends, end) })
	}
	e.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestServerParallelUnits(t *testing.T) {
	e := New()
	s := NewServer(e, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Submit(10*Nanosecond, func(end Time) { ends = append(ends, end) })
	}
	e.Run()
	// Two units: jobs finish at 10,10,20,20.
	want := []Time{10 * Nanosecond, 10 * Nanosecond, 20 * Nanosecond, 20 * Nanosecond}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestServerSaturationThroughput(t *testing.T) {
	// A single-unit server with 40ns service must deliver exactly 25 Mops.
	e := New()
	s := NewServer(e, 1)
	done := 0
	n := 100000
	for i := 0; i < n; i++ {
		s.Submit(40*Nanosecond, func(Time) { done++ })
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	mops := float64(done) / e.Now().Seconds() / 1e6
	if mops < 24.99 || mops > 25.01 {
		t.Fatalf("throughput = %.3f Mops, want 25", mops)
	}
}

func TestServerUtilization(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	s.Submit(30*Nanosecond, nil)
	e.At(60*Nanosecond, func() {})
	e.Run()
	if u := s.Utilization(); u < 0.499 || u > 0.501 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestServerZeroAndNegativeService(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	end := s.Submit(-5*Nanosecond, nil)
	if end != 0 {
		t.Fatalf("negative service end = %v, want 0", end)
	}
	end = s.Submit(0, nil)
	if end != 0 {
		t.Fatalf("zero service end = %v, want 0", end)
	}
}

func TestServerNextFreeAndBacklog(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	s.Submit(100*Nanosecond, nil)
	s.Submit(50*Nanosecond, nil)
	if nf := s.NextFree(); nf != 150*Nanosecond {
		t.Fatalf("NextFree = %v, want 150ns", nf)
	}
	if b := s.Backlog(); b != 150*Nanosecond {
		t.Fatalf("Backlog = %v, want 150ns", b)
	}
	e.RunUntil(200 * Nanosecond)
	if b := s.Backlog(); b != 0 {
		t.Fatalf("post-run Backlog = %v, want 0", b)
	}
}

func TestNewServerPanicsOnZeroUnits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer(0) did not panic")
		}
	}()
	NewServer(New(), 0)
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandDurationBetween(t *testing.T) {
	r := NewRand(1)
	lo, hi := 60*Nanosecond, 120*Nanosecond
	for i := 0; i < 1000; i++ {
		d := r.DurationBetween(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("DurationBetween out of range: %v", d)
		}
	}
	if r.DurationBetween(hi, lo) != hi {
		t.Fatal("inverted range should return lo")
	}
}

// Property: a k-unit server never exceeds k-way concurrency and preserves
// total service time in its busy accounting.
func TestServerBusyAccountingProperty(t *testing.T) {
	f := func(raw []uint8, unitsRaw uint8) bool {
		units := int(unitsRaw%4) + 1
		e := New()
		s := NewServer(e, units)
		var total Time
		for _, v := range raw {
			svc := Time(v) * Nanosecond
			total += svc
			s.Submit(svc, nil)
		}
		e.Run()
		return s.BusyTime() == total && s.Jobs() == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderContractProperty checks the engine's ordering contract
// against a reference: every scheduled event — plain At/After calls,
// including past times clamped to now and calls made from inside
// callbacks, and Server completions on multi-unit servers — runs in
// (at, seq) order, where at is the clamped time and seq the order in
// which the event was scheduled. An event scheduled during a callback
// has at >= now and a larger seq than every event before it, so the
// run order of a whole schedule equals one sort of all its events.
func TestOrderContractProperty(t *testing.T) {
	type sched struct {
		at  Time
		seq int
	}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := New()
		servers := []*Server{NewServer(e, 1), NewServer(e, 2), NewServer(e, 1+r.Intn(4))}
		var (
			scheduled []sched
			order     []int
			budget    = 200 + r.Intn(400)
		)
		// randTime draws from a small range so same-instant ties are
		// common, and sometimes lands in the past.
		randTime := func() Time {
			switch r.Intn(4) {
			case 0:
				return e.Now() // same instant as the running callback
			case 1:
				return e.Now() - Time(r.Intn(20))*Nanosecond // in the past
			default:
				return e.Now() + Time(r.Intn(8))*Nanosecond
			}
		}
		var schedule func()
		// record registers a new event (clamped time at) and returns the
		// callback body that logs its run and checks the counters.
		record := func(at Time) func() {
			id := len(scheduled)
			scheduled = append(scheduled, sched{at: at, seq: id})
			return func() {
				if e.Now() != at {
					t.Fatalf("seed %d: event %d ran at %v, scheduled for %v", seed, id, e.Now(), at)
				}
				order = append(order, id)
				if got := e.Processed(); got != uint64(len(order)) {
					t.Fatalf("seed %d: Processed = %d, want %d", seed, got, len(order))
				}
				if got, want := e.Pending(), len(scheduled)-len(order); got != want {
					t.Fatalf("seed %d: Pending = %d, want %d", seed, got, want)
				}
				for n := r.Intn(3); n > 0; n-- {
					schedule()
				}
			}
		}
		schedule = func() {
			if budget == 0 {
				return
			}
			budget--
			switch r.Intn(3) {
			case 0:
				at := randTime()
				clamped := at
				if clamped < e.Now() {
					clamped = e.Now()
				}
				e.At(at, record(clamped))
			case 1:
				d := Time(r.Intn(8)) * Nanosecond
				e.After(d, record(e.Now()+d))
			default:
				s := servers[r.Intn(len(servers))]
				svc := Time(r.Intn(6)) * Nanosecond
				if r.Intn(5) == 0 {
					s.Submit(svc, nil) // occupies a unit, schedules nothing
					return
				}
				var end Time
				var body func()
				end = s.Submit(svc, func(got Time) {
					if got != end {
						t.Fatalf("seed %d: done got %v, Submit returned %v", seed, got, end)
					}
					body()
				})
				body = record(end)
			}
		}
		for i := 0; i < 20; i++ {
			schedule()
		}
		if r.Intn(2) == 0 {
			e.RunUntil(Time(r.Intn(30)) * Nanosecond)
			for i := 0; i < 10; i++ {
				schedule()
			}
		}
		e.Run()

		want := append([]sched(nil), scheduled...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(order) != len(want) {
			t.Fatalf("seed %d: ran %d events, scheduled %d", seed, len(order), len(want))
		}
		for i := range want {
			if order[i] != want[i].seq {
				t.Fatalf("seed %d: position %d ran event %d, reference says %d", seed, i, order[i], want[i].seq)
			}
		}
		if e.Processed() != uint64(len(want)) || e.Pending() != 0 {
			t.Fatalf("seed %d: Processed = %d, Pending = %d after Run", seed, e.Processed(), e.Pending())
		}
	}
}

// scheduleCapturing schedules an event (via At, or as a Server
// completion) whose callback captures a large object, and returns a
// channel closed when that object is finalized. It keeps no reference
// to the object itself.
func scheduleCapturing(e *Engine, at Time, viaServer bool) <-chan struct{} {
	freed := make(chan struct{})
	big := new([1 << 20]byte)
	runtime.SetFinalizer(big, func(*[1 << 20]byte) { close(freed) })
	if viaServer {
		NewServer(e, 1).Submit(at, func(Time) { big[0]++ })
	} else {
		e.At(at, func() { big[0]++ })
	}
	return freed
}

// TestPoppedEventReleased checks that a finished callback, and what it
// captures, becomes garbage once its event has run. Two layouts leave a
// stale copy behind if the queue does not clear vacated slots: a queue
// that drains to empty, and a captured event that was the queue's tail
// when an earlier event popped, run while other events stay pending.
func TestPoppedEventReleased(t *testing.T) {
	for _, viaServer := range []bool{false, true} {
		for _, tail := range []bool{false, true} {
			e := New()
			steps, pending := 1, 0
			if tail {
				e.At(Nanosecond, func() {})
				for i := 3; i < 10; i++ {
					e.At(Time(i)*Nanosecond, func() {})
				}
				steps, pending = 2, 7
			}
			freed := scheduleCapturing(e, Time(steps)*Nanosecond, viaServer)
			for i := 0; i < steps; i++ {
				e.Step()
			}
			if e.Pending() != pending {
				t.Fatalf("Pending = %d, want %d", e.Pending(), pending)
			}
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
				t.Fatalf("viaServer=%v tail=%v: popped event's captures still reachable after GC", viaServer, tail)
			}
			runtime.KeepAlive(e)
		}
	}
}
