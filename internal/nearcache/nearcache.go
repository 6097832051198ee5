// Package nearcache is a client-side near cache: a kv.KV that wraps
// any other kv.KV (a HERD client, the sharded or fleet deployments, a
// mux channel) and serves recently read values from client memory, so
// a Zipf-skewed read mix stops crossing the wire for its hottest keys.
//
// Freshness is a *bounded-staleness* contract, not linearizability:
//
//   - In TTL mode every cached value expires Config.TTL after it was
//     fetched.
//   - In lease mode (Config.Leases) the origin server grants an
//     explicit expiry with each GET hit (core.Config.LeaseTTL, carried
//     in kv.Result.Lease) and the cache honors whichever of lease and
//     TTL comes first. The server keeps no per-lease state: a write is
//     never blocked by an outstanding lease, so a concurrent writer's
//     update becomes visible to a cached reader at worst when the
//     lease runs out.
//   - Writes through the wrapper invalidate the local entry at submit
//     time and mark any in-flight fill stale, so a client never serves
//     its *own* writes stale.
//
// Misses run under promise-based thundering-herd suppression (the
// justcache 202/409 protocol, adapted to an async client): the first
// client to miss a key issues the origin fetch and becomes the filler;
// concurrent missers park on the in-flight promise and share its
// result instead of dog-piling the origin shard. A parked waiter that
// outlives Config.HerdWait gives up on the promise and fetches
// directly, bounding the damage of a slow or crashed filler.
//
// See docs/CACHING.md for the full contract and the cache.* metric
// rows in docs/OBSERVABILITY.md.
package nearcache

import (
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// HitLatency is the modeled cost of serving a GET from the near cache:
// a local hash lookup and value copy, no PCIe and no wire. Cached hits
// are still delivered asynchronously on the engine — callers observe
// the same callback discipline as every other backend, just ~40x
// faster than a one-RTT remote GET.
const HitLatency = 100 * sim.Nanosecond

// Config parameterizes a near cache.
type Config struct {
	// TTL bounds how long a fetched value may be served locally. In
	// lease mode it acts as a cap on top of the server's lease. The
	// default is 25µs (virtual time).
	TTL sim.Time
	// Leases selects lease mode: entries expire at the server-granted
	// lease instant (kv.Result.Lease) when the backend provides one,
	// still capped by TTL. Results carrying no lease fall back to
	// plain TTL validity.
	Leases bool
	// Capacity bounds resident entries; the least recently used entry
	// is evicted first. The default is 1024.
	Capacity int
	// HerdWait bounds how long a misser stays parked on another
	// client's in-flight fill before giving up and fetching directly.
	// The default is 4x TTL; negative disables the bound.
	HerdWait sim.Time
}

// DefaultConfig returns the default near-cache parameters.
func DefaultConfig() Config { return Config{TTL: 25 * sim.Microsecond, Capacity: 1024} }

// setDefaults normalizes a user config in place.
func (c *Config) setDefaults() {
	if c.TTL <= 0 {
		c.TTL = 25 * sim.Microsecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.HerdWait == 0 {
		c.HerdWait = 4 * c.TTL
	}
}

// entry is one resident value, linked into the cache's intrusive LRU
// list. An entry removed from the cache (evicted, expired or
// invalidated) parks on the spare list with its value buffer, and the
// next insert reuses it.
type entry struct {
	key        kv.Key
	value      []byte
	expires    sim.Time // absolute virtual-time validity bound
	prev, next *entry   // LRU neighbours (Cache.lru is the sentinel); next links the spare list
}

// waiter is one caller parked on an in-flight fill (the filler itself
// is the first waiter). Waiters are pooled per cache and retired when
// their fill resolves; gen counts those retirements, so a herd-wait
// timer armed for an earlier life of the record finds a newer gen and
// stands down.
type waiter struct {
	cb     func(kv.Result)
	start  sim.Time
	served bool // delivered, or detached after HerdWait
	gen    uint64
}

// fill is the in-flight promise for one missed key. Fills are pooled
// per cache with done, the inner client's callback, bound once; a
// fill is retired after it has delivered to every waiter.
type fill struct {
	c       *Cache
	key     kv.Key
	waiters []*waiter
	stale   bool // a write raced the fill; don't cache its result
	done    func(kv.Result)
}

// herdTimer is one armed HerdWait bound: the waiter it guards and that
// waiter's gen when it was armed. Timers are pooled per cache with
// their callback bound once, and return to the pool when they fire,
// stale or not.
type herdTimer struct {
	c    *Cache
	key  kv.Key
	w    *waiter
	gen  uint64
	fire func()
}

// call is one caller's answer in waiting: a cached hit until its
// HitLatency delivery (fire), or a write-through PUT or DELETE until
// the origin answers (done). Calls are pooled per cache with both
// callbacks bound once, and retired once their answer is delivered.
type call struct {
	c    *Cache
	res  kv.Result // a cached hit's prepared answer
	cb   func(kv.Result)
	fire func()
	done func(kv.Result)
}

// Cache is the near cache. It implements kv.KV and kv.BatchGetter.
// Like every client in this tree it is single-goroutine: all calls and
// callbacks run on the simulation engine.
//
// Every per-operation record — fill, waiter, herd-wait timer, call —
// is pooled per cache with its callbacks bound once, and resident
// entries recycle through the spare list, so a steady-state operation
// allocates only the Result.Value copy a cached hit hands its caller.
type Cache struct {
	inner kv.KV
	clk   sim.Clock
	cfg   Config

	entries map[kv.Key]*entry
	lru     entry  // sentinel: lru.next is the most recently used entry, lru.prev the least
	spare   *entry // removed entries, linked through next
	fills   map[kv.Key]*fill

	// A cache creates at most Capacity entries; while it fills, fresh
	// entries and their value buffers are carved from slabs, so filling
	// costs one allocation per slab rather than two per entry.
	created   int
	entrySlab []entry
	valueSlab []byte

	fillFree   []*fill
	waiterFree []*waiter
	timerFree  []*herdTimer
	callFree   []*call

	inflight  int
	issued    uint64
	completed uint64
	failed    uint64

	telHits       *telemetry.Counter
	telMisses     *telemetry.Counter
	telExpired    *telemetry.Counter
	telFillsDone  *telemetry.Counter
	telHerdWaits  *telemetry.Counter
	telHerdAbort  *telemetry.Counter
	telInvalidate *telemetry.Counter
	telEvictions  *telemetry.Counter
	telSize       *telemetry.Gauge
}

var (
	_ kv.KV          = (*Cache)(nil)
	_ kv.BatchGetter = (*Cache)(nil)
)

// New wraps inner with a near cache. clk is the deployment's virtual
// clock (the cluster engine); tel may be nil.
func New(inner kv.KV, clk sim.Clock, tel *telemetry.Sink, cfg Config) *Cache {
	cfg.setDefaults()
	c := &Cache{
		inner:   inner,
		clk:     clk,
		cfg:     cfg,
		entries: make(map[kv.Key]*entry),
		fills:   make(map[kv.Key]*fill),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.telHits = tel.Counter("cache.hits")
	c.telMisses = tel.Counter("cache.misses")
	c.telExpired = tel.Counter("cache.lease.expired")
	c.telFillsDone = tel.Counter("cache.fills")
	c.telHerdWaits = tel.Counter("cache.herd.waits")
	c.telHerdAbort = tel.Counter("cache.herd.aborts")
	c.telInvalidate = tel.Counter("cache.invalidations")
	c.telEvictions = tel.Counter("cache.evictions")
	c.telSize = tel.Gauge("cache.size")
	return c
}

// Len reports the number of resident entries.
func (c *Cache) Len() int { return len(c.entries) }

// Inflight returns the number of unresolved operations.
func (c *Cache) Inflight() int { return c.inflight }

// Issued counts operations accepted by the wrapper (cached hits
// included — they are served operations, they just never reach inner).
func (c *Cache) Issued() uint64 { return c.issued }

// Completed counts operations resolved with a served response.
func (c *Cache) Completed() uint64 { return c.completed }

// Failed counts operations that resolved terminally unserved.
func (c *Cache) Failed() uint64 { return c.failed }

// deliver resolves one operation: counters, then the callback.
//
//herd:hotpath
func (c *Cache) deliver(r kv.Result, cb func(kv.Result)) {
	c.inflight--
	if r.Err != nil {
		c.failed++
	} else {
		c.completed++
	}
	if cb != nil {
		cb(r)
	}
}

// unlink takes e out of the LRU list.
//
//herd:hotpath
func (c *Cache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// pushFront links e in as the most recently used entry.
//
//herd:hotpath
func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// lookup returns the resident, still-valid entry for key, expiring a
// stale one on the way.
//
//herd:hotpath
func (c *Cache) lookup(key kv.Key) *entry {
	e := c.entries[key]
	if e == nil {
		return nil
	}
	if c.clk.Now() >= e.expires {
		// Lazy expiry: the lease (or TTL) ran out before anyone evicted
		// the entry; drop it and treat the read as a miss.
		c.telExpired.Inc()
		c.remove(e)
		return nil
	}
	c.unlink(e)
	c.pushFront(e)
	return e
}

// remove drops a resident entry onto the spare list.
//
//herd:hotpath
func (c *Cache) remove(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	e.next, c.spare = c.spare, e
	c.telSize.Set(int64(len(c.entries)))
}

// insert populates key after a successful fill, evicting LRU entries
// past capacity. The new entry is a spare one — after an eviction, the
// evicted entry itself — so its value buffer is reused.
//
//herd:hotpath
func (c *Cache) insert(key kv.Key, value []byte, expires sim.Time) {
	if expires <= c.clk.Now() {
		return // already dead on arrival (e.g. a zero lease in lease mode)
	}
	if e := c.entries[key]; e != nil {
		e.value = append(e.value[:0], value...)
		e.expires = expires
		c.unlink(e)
		c.pushFront(e)
		c.telFillsDone.Inc()
		return
	}
	for len(c.entries) >= c.cfg.Capacity {
		oldest := c.lru.prev
		if oldest == &c.lru {
			break
		}
		c.telEvictions.Inc()
		c.remove(oldest)
	}
	e := c.spare
	if e != nil {
		c.spare, e.next = e.next, nil
	} else {
		e = c.newEntry(len(value)) //lint:allow hotalloc — the cache fills to Capacity once; later inserts reuse spare entries
	}
	e.key, e.expires = key, expires
	e.value = append(e.value[:0], value...)
	c.pushFront(e)
	c.entries[key] = e
	c.telFillsDone.Inc()
	c.telSize.Set(int64(len(c.entries)))
}

// Slab sizes for a filling cache (see Cache.created).
const (
	entrySlabLen   = 64
	valueSlabBytes = 16 << 10
)

// newEntry returns a fresh entry whose value buffer holds vlen bytes,
// both carved from the cache's slabs.
func (c *Cache) newEntry(vlen int) *entry {
	if len(c.entrySlab) == 0 {
		c.entrySlab = make([]entry, min(entrySlabLen, c.cfg.Capacity-c.created))
	}
	e := &c.entrySlab[0]
	c.entrySlab = c.entrySlab[1:]
	c.created++
	if len(c.valueSlab)+vlen > cap(c.valueSlab) {
		c.valueSlab = make([]byte, 0, max(valueSlabBytes, vlen))
	}
	n := len(c.valueSlab)
	e.value = c.valueSlab[n : n : n+vlen]
	c.valueSlab = c.valueSlab[:n+vlen]
	return e
}

// validity derives the cache expiry a fill result earns: TTL from now,
// tightened to the server's lease in lease mode.
//
//herd:hotpath
func (c *Cache) validity(r kv.Result) sim.Time {
	exp := c.clk.Now() + c.cfg.TTL
	if c.cfg.Leases && r.Lease > 0 && r.Lease < exp {
		exp = r.Lease
	}
	return exp
}

// hitResult builds the Result a cached read serves. The value is
// copied out of the entry — callers own their Result.Value, and the
// resident copy must survive caller mutation.
func (c *Cache) hitResult(e *entry) kv.Result {
	return kv.Result{
		Key:     e.key,
		IsGet:   true,
		Status:  kv.StatusHit,
		Value:   append([]byte(nil), e.value...),
		Latency: HitLatency,
		Lease:   e.expires,
	}
}

// Get serves key from the near cache when resident and valid; a miss
// joins (or creates) the key's in-flight fill.
//
//herd:hotpath
func (c *Cache) Get(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	if e := c.lookup(key); e != nil {
		c.telHits.Inc()
		c.issued++
		c.inflight++
		op := c.getCall(cb)
		op.res = c.hitResult(e) //lint:allow hotalloc — the Result.Value copy a cached hit hands its caller
		c.clk.After(HitLatency, op.fire)
		return nil
	}
	return c.joinFill(key, cb)
}

// getCall returns a pooled call answering cb.
//
//herd:hotpath
func (c *Cache) getCall(cb func(kv.Result)) *call {
	var op *call
	if n := len(c.callFree); n > 0 {
		op = c.callFree[n-1]
		c.callFree = c.callFree[:n-1]
	} else {
		op = newCall(c) //lint:allow hotalloc — pool growth, once per concurrent cached hit or write
	}
	op.cb = cb
	return op
}

func newCall(c *Cache) *call {
	op := &call{c: c}
	op.fire, op.done = op.deliverHit, op.complete
	return op
}

// deliverHit serves a cached hit's prepared answer.
//
//herd:hotpath
func (op *call) deliverHit() { op.complete(op.res) }

// complete delivers r to the caller, then retires the call.
//
//herd:hotpath
func (op *call) complete(r kv.Result) {
	op.c.deliver(r, op.cb)
	op.res, op.cb = kv.Result{}, nil
	op.c.callFree = append(op.c.callFree, op)
}

// getWaiter returns a pooled waiter parked for cb from now.
//
//herd:hotpath
func (c *Cache) getWaiter(cb func(kv.Result)) *waiter {
	var w *waiter
	if n := len(c.waiterFree); n > 0 {
		w = c.waiterFree[n-1]
		c.waiterFree = c.waiterFree[:n-1]
	} else {
		w = new(waiter) //lint:allow hotalloc — pool growth, once per concurrent parked caller
	}
	w.cb, w.start, w.served = cb, c.clk.Now(), false
	return w
}

// getFill returns a pooled, empty fill for key.
//
//herd:hotpath
func (c *Cache) getFill(key kv.Key) *fill {
	var f *fill
	if n := len(c.fillFree); n > 0 {
		f = c.fillFree[n-1]
		c.fillFree = c.fillFree[:n-1]
	} else {
		f = newFill(c) //lint:allow hotalloc — pool growth, once per concurrent fill
	}
	f.key = key
	return f
}

func newFill(c *Cache) *fill {
	f := &fill{c: c}
	f.done = f.resolve
	return f
}

// putFill retires f and every waiter parked on it. A waiter's gen
// advances as it retires, which disarms any herd-wait timer still
// pending for it.
//
//herd:hotpath
func (c *Cache) putFill(f *fill) {
	for i, w := range f.waiters {
		w.cb = nil
		w.gen++
		c.waiterFree = append(c.waiterFree, w)
		f.waiters[i] = nil
	}
	f.waiters = f.waiters[:0]
	f.stale = false
	c.fillFree = append(c.fillFree, f)
}

// resolve is the origin's answer to f's fetch.
//
//herd:hotpath
func (f *fill) resolve(r kv.Result) { f.c.resolveFill(f.key, f, r) }

// joinFill parks cb on key's in-flight fill, creating the fill (and
// issuing the origin fetch) when none is pending.
//
//herd:hotpath
func (c *Cache) joinFill(key kv.Key, cb func(kv.Result)) error {
	if f := c.fills[key]; f != nil {
		// Herd suppressed: share the promise already in flight.
		w := c.getWaiter(cb)
		c.telHerdWaits.Inc()
		c.issued++
		c.inflight++
		f.waiters = append(f.waiters, w)
		c.armHerdWait(key, w)
		return nil
	}
	f := c.getFill(key)
	f.waiters = append(f.waiters, c.getWaiter(cb))
	// Registered before the fetch goes out, so an origin that answers
	// synchronously resolves — and retires — a registered fill.
	c.fills[key] = f
	if err := c.inner.Get(key, f.done); err != nil {
		c.dropFill(f)
		return err
	}
	c.telMisses.Inc()
	c.issued++
	c.inflight++
	return nil
}

// dropFill unregisters and retires a fill whose fetch the origin
// refused; a refused fetch never answers.
//
//herd:hotpath
func (c *Cache) dropFill(f *fill) {
	delete(c.fills, f.key)
	c.putFill(f)
}

// resolveFill completes a promise: populate the cache (unless a write
// raced the fill), deliver the shared result to every parked waiter,
// then retire the fill with its waiters.
//
//herd:hotpath
func (c *Cache) resolveFill(key kv.Key, f *fill, r kv.Result) {
	if c.fills[key] == f {
		delete(c.fills, key)
	}
	if !f.stale && r.Status == kv.StatusHit {
		c.insert(key, r.Value, c.validity(r))
	}
	now := c.clk.Now()
	for _, w := range f.waiters {
		if w.served {
			continue
		}
		w.served = true
		wr := r
		wr.Latency = now - w.start
		c.deliver(wr, w.cb)
	}
	c.putFill(f)
}

// armHerdWait bounds a parked waiter's patience: if the promise has
// not resolved within HerdWait, the waiter detaches and fetches
// directly (the filler may be wedged behind a crashed shard).
//
//herd:hotpath
func (c *Cache) armHerdWait(key kv.Key, w *waiter) {
	if c.cfg.HerdWait < 0 {
		return
	}
	var t *herdTimer
	if n := len(c.timerFree); n > 0 {
		t = c.timerFree[n-1]
		c.timerFree = c.timerFree[:n-1]
	} else {
		t = newHerdTimer(c) //lint:allow hotalloc — pool growth, once per concurrently parked waiter
	}
	t.key, t.w, t.gen = key, w, w.gen
	c.clk.After(c.cfg.HerdWait, t.fire)
}

func newHerdTimer(c *Cache) *herdTimer {
	t := &herdTimer{c: c}
	t.fire = t.expire
	return t
}

// expire detaches a waiter its fill kept past HerdWait and fetches its
// key directly, unless the waiter was served or retired in the
// meantime.
func (t *herdTimer) expire() {
	c, key, w, gen := t.c, t.key, t.w, t.gen
	t.w = nil
	c.timerFree = append(c.timerFree, t)
	if w.gen != gen || w.served {
		return // stale: the fill delivered, or the record serves a later caller
	}
	w.served = true
	c.telHerdAbort.Inc()
	cb, start := w.cb, w.start
	err := c.inner.Get(key, func(r kv.Result) {
		r.Latency = c.clk.Now() - start
		c.deliver(r, cb)
	})
	if err != nil {
		// The inner client rejected the direct fetch synchronously
		// (it cannot: the key was already validated) — fail the op
		// rather than strand it.
		c.deliver(kv.Result{Key: key, IsGet: true, Status: kv.StatusTimeout, Err: err}, cb)
	}
}

// invalidate drops key locally and marks any in-flight fill stale, so
// a write submitted through this wrapper is never shadowed by its own
// cache. Remote writers stay invisible until lease/TTL expiry — that
// is the bounded-staleness contract.
//
//herd:hotpath
func (c *Cache) invalidate(key kv.Key) {
	dropped := false
	if e := c.entries[key]; e != nil {
		c.remove(e)
		dropped = true
	}
	if f := c.fills[key]; f != nil && !f.stale {
		f.stale = true
		dropped = true
	}
	if dropped {
		c.telInvalidate.Inc()
	}
}

// Put writes through to the origin, invalidating the local entry at
// submit time.
//
//herd:hotpath
func (c *Cache) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	op := c.getCall(cb)
	if err := c.inner.Put(key, value, op.done); err != nil {
		op.cb = nil
		c.callFree = append(c.callFree, op)
		return err
	}
	c.invalidate(key)
	c.issued++
	c.inflight++
	return nil
}

// Delete writes through to the origin, invalidating the local entry at
// submit time.
//
//herd:hotpath
func (c *Cache) Delete(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	op := c.getCall(cb)
	if err := c.inner.Delete(key, op.done); err != nil {
		op.cb = nil
		c.callFree = append(c.callFree, op)
		return err
	}
	c.invalidate(key)
	c.issued++
	c.inflight++
	return nil
}

// MultiGet answers resident keys locally and fetches the remainder in
// one batch: when inner implements kv.BatchGetter (the fleet client
// groups keys per primary shard) the remainder rides a single inner
// MultiGet; otherwise each missing key fetches individually. Remainder
// keys register promises like single-key misses, so concurrent Gets
// park on the batch instead of re-fetching. cb receives one Result per
// requested key, in request order; duplicates share one fetch.
func (c *Cache) MultiGet(keys []kv.Key, cb func([]kv.Result)) error {
	for _, k := range keys {
		if k.IsZero() {
			return kv.ErrZeroKey
		}
	}
	results := make([]kv.Result, len(keys))
	if len(keys) == 0 {
		if cb != nil {
			cb(results)
		}
		return nil
	}
	// Duplicate keys resolve once; the shared result lands in every
	// position that asked (same discipline as the fleet client).
	pos := make(map[kv.Key][]int)
	uniq := make([]kv.Key, 0, len(keys))
	for i, k := range keys {
		if _, dup := pos[k]; !dup {
			uniq = append(uniq, k)
		}
		pos[k] = append(pos[k], i)
	}
	remaining := len(uniq)
	resolve := func(k kv.Key, r kv.Result) {
		for _, idx := range pos[k] {
			results[idx] = r
		}
		if remaining--; remaining == 0 && cb != nil {
			cb(results)
		}
	}
	// Keys the batch must actually fetch (not resident, no fill in
	// flight), discovered before issuing anything so the batch is one
	// decision, not len(uniq) racing ones.
	var missing []kv.Key
	var fetchFills []*fill
	for _, k := range uniq {
		k := k
		wcb := func(r kv.Result) { resolve(k, r) }
		if e := c.lookup(k); e != nil {
			c.telHits.Inc()
			c.issued++
			c.inflight++
			op := c.getCall(wcb)
			op.res = c.hitResult(e)
			c.clk.After(HitLatency, op.fire)
			continue
		}
		if f := c.fills[k]; f != nil {
			w := c.getWaiter(wcb)
			c.telHerdWaits.Inc()
			c.issued++
			c.inflight++
			f.waiters = append(f.waiters, w)
			c.armHerdWait(k, w)
			continue
		}
		f := c.getFill(k)
		f.waiters = append(f.waiters, c.getWaiter(wcb))
		missing = append(missing, k)
		fetchFills = append(fetchFills, f)
	}
	if len(missing) == 0 {
		return nil
	}
	for _, f := range fetchFills {
		c.fills[f.key] = f
	}
	if bg, ok := c.inner.(kv.BatchGetter); ok {
		err := bg.MultiGet(missing, func(rs []kv.Result) {
			for i, f := range fetchFills {
				c.resolveFill(f.key, f, rs[i])
			}
		})
		if err != nil {
			for _, f := range fetchFills {
				c.dropFill(f)
			}
			return err
		}
		for range fetchFills {
			c.telMisses.Inc()
			c.issued++
			c.inflight++
		}
		return nil
	}
	for i, f := range fetchFills {
		if err := c.inner.Get(f.key, f.done); err != nil {
			for _, g := range fetchFills[i:] {
				c.dropFill(g)
			}
			return err
		}
		c.telMisses.Inc()
		c.issued++
		c.inflight++
	}
	return nil
}
