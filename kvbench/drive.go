package main

import (
	"fmt"
	"math"
	"math/rand"

	"herdkv"
)

// engine is the part of the cluster's simulation engine the runner
// drives.
type engine interface {
	Now() herdkv.Time
	At(t herdkv.Time, fn func())
	RunUntil(deadline herdkv.Time)
	Processed() uint64
}

// clientState is one simulated client: its KV handle and its own
// random stream (arrival gaps, key and op choice).
type clientState struct {
	kv  herdkv.KV
	rng *rand.Rand
}

// runner drives one deployment and checks every result it gets back.
type runner struct {
	w    *workload
	eng  engine
	cs   []*clientState
	keys keyDist

	maxSeq []uint64 // highest write sequence issued per key id
	seq    uint64
	buf    []byte // PUT value scratch (clients copy it at submit)

	outstanding int
	attempted   uint64
	failed      uint64
	getHits     uint64
	getMisses   uint64
	err         error // first incorrect output or synchronous rejection

	// onArrival, when set, runs at every arrival (the traced run's
	// zero-perturbation sampler).
	onArrival func()
}

func newRunner(w *workload, d *deployment, seed int64, keys keyDist) *runner {
	r := &runner{
		w: w, eng: d.cl.Eng, keys: keys,
		maxSeq: make([]uint64, w.keys),
		buf:    make([]byte, w.valueSize),
	}
	for i, c := range d.clients {
		r.cs = append(r.cs, &clientState{kv: c, rng: rand.New(rand.NewSource(streamSeed(seed, uint64(i))))})
	}
	return r
}

// phase collects one measured window: latencies of the operations due
// inside [start, end), timed from their due instant.
type phase struct {
	start, end herdkv.Time
	lat        []int64  // sorted once the phase ends
	due        int      // operations due in the window
	failed     int      // of those, resolved unserved
	served     opCounts // served completions inside the window
	backlogMid int      // outstanding operations at the window midpoint
	backlogEnd int      // outstanding operations at the window end
}

func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// issue submits one operation for client cs, due at due. record says
// whether its latency belongs to p; then, if set, runs after the
// operation resolves.
func (r *runner) issue(cs *clientState, due herdkv.Time, p *phase, record bool, then func()) {
	if r.onArrival != nil {
		r.onArrival()
	}
	id := r.keys.next(cs.rng)
	isGet := cs.rng.Intn(100) < r.w.getPct
	if record {
		p.due++
	}
	r.attempted++
	r.outstanding++
	cb := func(res herdkv.Result) {
		r.outstanding--
		if !res.Status.Served() {
			r.failed++
			if record {
				p.failed++
			}
			if then != nil {
				then()
			}
			return
		}
		if isGet {
			switch res.Status {
			case herdkv.StatusHit:
				r.getHits++
				if err := checkValue(res.Value, id, r.w.valueSize, r.maxSeq[id]); err != nil {
					r.fail(err)
				}
			default:
				r.getMisses++
			}
		}
		now := r.eng.Now()
		if record {
			p.lat = append(p.lat, int64(now-due))
		}
		if now >= p.start && now < p.end {
			p.served.ops++
			if !isGet {
				p.served.puts++
			}
		}
		if then != nil {
			then()
		}
	}
	var err error
	if isGet {
		err = cs.kv.Get(keyOf(id), cb)
	} else {
		r.seq++
		r.maxSeq[id] = r.seq
		fillValue(r.buf, id, r.seq)
		err = cs.kv.Put(keyOf(id), r.buf, cb)
	}
	if err != nil {
		r.outstanding--
		r.fail(fmt.Errorf("submit: %w", err))
	}
}

// windowHooks run at the measured window's edges.
type windowHooks struct{ start, end func() }

// openLoop offers Poisson load at rateMops split evenly over the
// clients, each an independent source, for warm then span of virtual
// time, and records the operations due in the span. It returns once
// every operation has resolved.
func (r *runner) openLoop(rateMops float64, warm, span herdkv.Time, hooks windowHooks) *phase {
	t0 := r.eng.Now()
	p := &phase{start: t0 + warm, end: t0 + warm + span}
	perClient := rateMops * 1e6 / float64(len(r.cs))
	for _, cs := range r.cs {
		cs := cs
		src := newPoisson(cs.rng, perClient)
		var arrive func()
		arrive = func() {
			now := r.eng.Now()
			if now >= p.end {
				return
			}
			r.issue(cs, now, p, now >= p.start, nil)
			r.eng.At(now+src.gap(), arrive)
		}
		r.eng.At(t0+src.gap(), arrive)
	}
	r.eng.RunUntil(p.start)
	if hooks.start != nil {
		hooks.start()
	}
	r.eng.RunUntil(p.start + span/2)
	p.backlogMid = r.outstanding
	r.eng.RunUntil(p.end)
	p.backlogEnd = r.outstanding
	if hooks.end != nil {
		hooks.end()
	}
	r.drain(span)
	sortInt64s(p.lat)
	return p
}

// closedLoop keeps window operations outstanding per client, each
// completion issuing the next, and counts served completions inside
// [warm, warm+span).
func (r *runner) closedLoop(window int, warm, span herdkv.Time) *phase {
	t0 := r.eng.Now()
	p := &phase{start: t0 + warm, end: t0 + warm + span}
	for _, cs := range r.cs {
		cs := cs
		var chain func()
		chain = func() {
			if now := r.eng.Now(); now < p.end {
				r.issue(cs, now, p, false, chain)
			}
		}
		for i := 0; i < window; i++ {
			chain()
		}
	}
	r.eng.RunUntil(p.end)
	r.drain(span)
	return p
}

// drain runs the engine until every issued operation resolved, giving
// up (and failing the run) after limit of extra virtual time.
func (r *runner) drain(limit herdkv.Time) {
	deadline := r.eng.Now() + 20*limit
	for r.outstanding > 0 && r.eng.Now() < deadline {
		r.eng.RunUntil(r.eng.Now() + 10*herdkv.Microsecond)
	}
	if r.outstanding > 0 {
		r.fail(fmt.Errorf("%d operations never resolved", r.outstanding))
	}
}

// probeResult is one offered rate's outcome in the slo_mops search.
type probeResult struct {
	p99 float64 // µs; +Inf when an operation failed or never finished
	ok  bool
}

// searchSLO finds the highest rate in [lo, hi] that probe accepts by
// bisection over steps halvings, then interpolates p99 linearly between
// the last accepted and the first refused rate so the answer is not
// pinned to the bisection grid. It assumes acceptance is monotone in
// rate; ok is false when [lo, hi] does not bracket the answer.
func searchSLO(lo, hi float64, steps int, limitUS float64, probe func(rate float64) probeResult) (rate float64, ok bool) {
	pl := probe(lo)
	if !pl.ok {
		return lo, false
	}
	ph := probe(hi)
	if ph.ok {
		return hi, false
	}
	for i := 0; i < steps; i++ {
		mid := (lo + hi) / 2
		pm := probe(mid)
		if pm.ok {
			lo, pl = mid, pm
		} else {
			hi, ph = mid, pm
		}
	}
	if math.IsInf(ph.p99, 1) || ph.p99 <= pl.p99 {
		return lo, true
	}
	f := (limitUS - pl.p99) / (ph.p99 - pl.p99)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return lo + f*(hi-lo), true
}
