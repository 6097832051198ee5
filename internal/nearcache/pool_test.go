package nearcache

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// TestStaleHerdTimerAfterWaiterReuse pins the waiter pool's generation
// guard. A parked waiter arms a HerdWait timer; its fill resolves well
// before the timer, which retires the waiter, and the pool hands the
// same record to the filler of a fill that never resolves. When the
// old timer fires it must find the record's newer generation and stand
// down: the first two callers are served once each by their fill, and
// the wedged fill's caller gets nothing — no detach, no direct fetch
// on a timer that was never armed for it.
func TestStaleHerdTimerAfterWaiterReuse(t *testing.T) {
	eng := sim.New()
	f := newFake(eng) // origin answers in 5µs
	a, b := k(1), k(2)
	f.store[a] = []byte("value-a")
	f.store[b] = []byte("value-b")
	c := New(f, eng, nil, Config{TTL: sim.Second, HerdWait: 15 * sim.Microsecond})

	calls := map[string][]kv.Result{}
	record := func(name string) func(kv.Result) {
		return func(r kv.Result) { calls[name] = append(calls[name], r) }
	}
	c.Get(a, record("filler"))
	c.Get(a, record("parked")) // arms a timer for t=15µs
	parked := c.fills[a].waiters[1]
	var reused *waiter
	eng.At(6*sim.Microsecond, func() {
		// a's fill resolved at 5µs and retired both waiters; b's fill
		// wedges, so its filler stays unserved past the old timer.
		f.hang = 1
		c.Get(b, record("wedged"))
		reused = c.fills[b].waiters[0]
	})
	eng.Run()

	if reused != parked {
		t.Fatal("the retired waiter record was not reused: the test no longer exercises the stale timer")
	}
	for _, name := range []string{"filler", "parked"} {
		if rs := calls[name]; len(rs) != 1 || rs[0].Status != kv.StatusHit || string(rs[0].Value) != "value-a" {
			t.Fatalf("%s got %d deliveries %+v, want one hit on value-a", name, len(rs), rs)
		}
	}
	if rs := calls["wedged"]; len(rs) != 0 {
		t.Fatalf("the wedged fill's caller got %+v from another waiter's timer", rs)
	}
	if f.gets != 2 {
		t.Fatalf("origin GETs = %d, want 2 (no direct fetch from a stale timer)", f.gets)
	}
	if c.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1 (the wedged fill's caller)", c.Inflight())
	}
}
