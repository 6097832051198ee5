package nearcache

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// gateOrigin is an allocation-free origin for the hot-path gates: it
// holds each accepted operation until drain answers it, GETs from a
// fixed store whose value slices it owns.
type gateOrigin struct {
	store   map[kv.Key][]byte
	pending []gateOp
}

type gateOp struct {
	key kv.Key
	get bool
	cb  func(kv.Result)
}

func (g *gateOrigin) Get(key kv.Key, cb func(kv.Result)) error {
	g.pending = append(g.pending, gateOp{key, true, cb})
	return nil
}
func (g *gateOrigin) Put(key kv.Key, _ []byte, cb func(kv.Result)) error {
	g.pending = append(g.pending, gateOp{key, false, cb})
	return nil
}
func (g *gateOrigin) Delete(key kv.Key, cb func(kv.Result)) error {
	g.pending = append(g.pending, gateOp{key, false, cb})
	return nil
}
func (g *gateOrigin) Inflight() int     { return len(g.pending) }
func (g *gateOrigin) Issued() uint64    { return 0 }
func (g *gateOrigin) Completed() uint64 { return 0 }
func (g *gateOrigin) Failed() uint64    { return 0 }

// drain answers every accepted operation in acceptance order.
func (g *gateOrigin) drain() {
	for i := 0; i < len(g.pending); i++ {
		op := g.pending[i]
		g.pending[i] = gateOp{}
		r := kv.Result{Key: op.key, IsGet: op.get, Status: kv.StatusHit}
		if op.get {
			v, ok := g.store[op.key]
			r.Value = v
			if !ok {
				r.Status = kv.StatusMiss
			}
		}
		op.cb(r)
	}
	g.pending = g.pending[:0]
}

// TestHotpathAllocFree gates the near cache's //herd:hotpath functions
// at 0 allocs/op. A one-entry cache reading two stored keys in turn
// misses every time: each GET opens a fill, the origin's answer
// inserts the key by evicting — and reusing — the other's entry and
// value buffer, and delivers. A herd of two GETs on an absent key
// parks the second on the first's fill and arms its HerdWait timer,
// which later fires stale. Fills, waiters, timers and calls (cached
// hits and write-throughs) are all pooled, so none of it allocates once
// warm. A cached hit's own Result.Value copy is the one allocation the
// cache keeps, so the cached-hit gate delivers a prepared result.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	a, b, absent := kv.FromUint64(1), kv.FromUint64(2), kv.FromUint64(3)
	origin := &gateOrigin{store: map[kv.Key][]byte{a: []byte("value-a"), b: []byte("value-b")}}
	c := New(origin, eng, nil, Config{TTL: sim.Second, Capacity: 1, HerdWait: sim.Microsecond})
	served := 0
	cb := func(r kv.Result) {
		if r.Err == nil {
			served++
		}
	}
	miss := func() {
		_ = c.Get(a, cb)
		origin.drain()
		_ = c.Get(b, cb)
		origin.drain()
	}
	herd := func() {
		_ = c.Get(absent, cb)
		_ = c.Get(absent, cb)
		origin.drain()
		eng.Run() // the parked waiter's HerdWait timer fires stale
	}
	newA := []byte("new-a")
	write := func() {
		_ = c.Put(a, newA, cb)
		_ = c.Delete(b, cb)
		origin.drain()
	}
	hit := func() {
		op := c.getCall(cb)
		op.res = kv.Result{Status: kv.StatusHit}
		c.inflight++
		op.deliverHit()
	}
	refused := func() {
		f := c.getFill(absent)
		c.fills[absent] = f
		c.dropFill(f)
	}
	hotgate.Check(t, ".", map[string]func(){
		"Cache.dropFill":    refused,
		"Cache.Get":         miss,
		"Cache.lookup":      miss,
		"Cache.joinFill":    miss,
		"Cache.getFill":     miss,
		"Cache.getWaiter":   miss,
		"fill.resolve":      miss,
		"Cache.resolveFill": miss,
		"Cache.insert":      miss,
		"Cache.remove":      miss,
		"Cache.unlink":      miss,
		"Cache.pushFront":   miss,
		"Cache.validity":    miss,
		"Cache.deliver":     miss,
		"Cache.putFill":     miss,
		"Cache.armHerdWait": herd,
		"Cache.Put":         write,
		"Cache.Delete":      write,
		"Cache.invalidate":  write,
		"Cache.getCall":     write,
		"call.complete":     write,
		"call.deliverHit":   hit,
	})
	if served == 0 || c.Inflight() != 0 || len(origin.pending) != 0 {
		t.Fatalf("served=%d inflight=%d: the gates did not drive ops to completion", served, c.Inflight())
	}
}
