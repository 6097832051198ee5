package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"herdkv"
)

// Phase sizes, in virtual time or operations. They are fixed, so the
// modeled results depend only on the seed; -seconds only sets how many
// times a run repeats.
const (
	warmup      = 100 * herdkv.Microsecond // open-loop load before the nominal window
	probeWarm   = 20 * herdkv.Microsecond
	probeOps    = 4000 // operations due per slo_mops probe window
	searchSteps = 6
	peakWindow  = 4 // closed-loop operations in flight per client (Fig 9/12)
	peakWarm    = 50 * herdkv.Microsecond
	peakSpan    = 300 * herdkv.Microsecond
	minRepeats  = 2
	maxRepeats  = 50
	mb          = 1 << 20
)

// spanFor is the virtual window in which ops operations fall due at
// rateMops.
func spanFor(ops int, rateMops float64) herdkv.Time {
	return herdkv.Time(float64(ops) / rateMops * float64(herdkv.Microsecond))
}

func keysFor(w *workload) keyDist {
	if w.zipf {
		return newZipf(w.keys, 0.99)
	}
	return uniformKeys{w.keys}
}

// heapBytes is the Go heap held in objects, live or not yet swept.
func heapBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// liveHeap collects garbage first, so it reads only live objects.
func liveHeap() float64 {
	runtime.GC()
	return heapBytes()
}

func mallocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// modeled is everything a repeat computes on the virtual clock; two
// repeats of one seed must agree on all of it.
type modeled struct {
	lat                []int64 // nominal window, sorted
	slo, peak          float64
	attempted, failed  uint64
	getHits, getMisses uint64
	served             opCounts
	layers             metrics // per-layer metrics read through accessors
}

type runResult struct {
	m                 metrics
	attempted, failed uint64
}

// repeat runs body until the host budget is spent, at least minRepeats
// times, stopping early when one more would overrun.
func repeat(seconds int, body func() error) error {
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for n := 0; n < maxRepeats; n++ {
		t := time.Now()
		if err := body(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if n+1 >= minRepeats && elapsed+time.Since(t) > budget {
			return nil
		}
	}
	return nil
}

// nominal runs warm-up and the nominal-rate window on a fresh runner,
// calling hooks at the window's edges.
func (r *runner) nominal(hooks windowHooks) *phase {
	return r.openLoop(r.w.nominalMops, warmup, spanFor(r.w.nominalOps, r.w.nominalMops), hooks)
}

// runEndToEnd is the untraced run: per repeat, a fresh deployment, the
// nominal window, the slo_mops search and the closed-loop peak.
func runEndToEnd(w *workload, seed int64, seconds int) (runResult, error) {
	keys := keysFor(w)
	var first *modeled
	var setup, usPerOp, allocsPerOp, heapPeak []float64
	var res runResult
	err := repeat(seconds, func() error {
		runtime.GC()
		d, err := w.build(w, nil)
		if err != nil {
			return err
		}
		peakHeap := heapBytes()
		setup = append(setup, d.setup.total())
		runtime.GC()

		r := newRunner(w, d, seed, keys)
		m0, lap := mallocs(), stopwatch()
		p := r.nominal(windowHooks{})
		peakHeap = math.Max(peakHeap, heapBytes())
		limit := w.p99Limit.Microseconds()
		slo, bracketed := searchSLO(w.searchLo, w.searchHi, searchSteps, limit, func(rate float64) probeResult {
			pp := r.openLoop(rate, probeWarm, spanFor(probeOps, rate), windowHooks{})
			peakHeap = math.Max(peakHeap, heapBytes())
			res := probeResult{p99: math.Inf(1)}
			if pp.failed == 0 && len(pp.lat) == pp.due {
				res.p99 = herdkv.Time(percentile(pp.lat, p99)).Microseconds()
			}
			slack := int(rate * limit)
			res.ok = res.p99 <= limit && pp.backlogEnd <= pp.backlogMid+slack
			return res
		})
		if !bracketed {
			return fmt.Errorf("slo_mops search bracket [%g, %g] Mops does not contain the SLO point (got %g)", w.searchLo, w.searchHi, slo)
		}
		pk := r.closedLoop(peakWindow, peakWarm, peakSpan)
		peakHeap = math.Max(peakHeap, heapBytes())
		hostUS := lap() * 1e6
		allocs := float64(mallocs() - m0)
		if r.err != nil {
			return &incorrectError{r.err}
		}
		done := float64(r.attempted - r.failed)
		usPerOp = append(usPerOp, hostUS/done)
		allocsPerOp = append(allocsPerOp, allocs/done)
		heapPeak = append(heapPeak, peakHeap/mb)
		res.attempted += r.attempted
		res.failed += r.failed

		got := &modeled{
			lat: p.lat, slo: slo, peak: float64(pk.served.ops) / pk.span().Microseconds(),
			attempted: r.attempted, failed: r.failed, getHits: r.getHits, getMisses: r.getMisses,
			served: p.served,
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			return &incorrectError{fmt.Errorf("seed %d: modeled results differ between repeats", seed)}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if tl, ok := tailLevel(len(first.lat)); !ok || tl.den < p999.den {
		return res, fmt.Errorf("%d nominal samples leave fewer than %d beyond p99.9", len(first.lat), minBeyond)
	}
	m := metrics{}
	m.set("slo_mops", first.slo)
	m.set("p50_us", herdkv.Time(percentile(first.lat, p50)).Microseconds())
	m.set("p999_us", herdkv.Time(percentile(first.lat, p999)).Microseconds())
	m.set("peak_mops", first.peak)
	m.set("served_ratio", ratio(float64(first.attempted-first.failed), float64(first.attempted)))
	m.set("host_us_per_op", median(usPerOp))
	m.set("allocs_per_op", median(allocsPerOp))
	m.set("heap_mb", median(heapPeak))
	m.set("setup_s", median(setup))
	res.m = m
	return res, nil
}

func (p *phase) span() herdkv.Time { return p.end - p.start }

// runTraced is the per-layer run. Each repeat runs the nominal window
// twice on fresh deployments of the same seed: untraced, reading layer
// counters through accessors, then with the telemetry sink, the
// tracer, the benchmark's own samplers and a CPU profile. The two must
// agree on every modeled number.
func runTraced(w *workload, seed int64, seconds int) (runResult, error) {
	keys := keysFor(w)
	var first *modeled
	var setupCluster, setupPreload, setupConnect, heapSetup, heapGrowth []float64
	var nsPerEvent, allocsPerEvent, overhead []float64
	shares := map[string]int64{}
	var traced metrics
	var res runResult
	err := repeat(seconds, func() error {
		// Untraced.
		base := liveHeap()
		d, err := w.build(w, nil)
		if err != nil {
			return err
		}
		setupCluster = append(setupCluster, d.setup.cluster)
		setupPreload = append(setupPreload, d.setup.preload)
		setupConnect = append(setupConnect, d.setup.connect)
		afterSetup := liveHeap()
		heapSetup = append(heapSetup, (afterSetup-base)/mb)

		r := newRunner(w, d, seed, keys)
		var a, b snap
		ev0 := d.cl.Eng.Processed()
		m0, lap := mallocs(), stopwatch()
		p := r.nominal(windowHooks{start: func() { a = takeSnap(d) }, end: func() { b = takeSnap(d) }})
		hostNS := lap() * 1e9
		allocs := float64(mallocs() - m0)
		heapGrowth = append(heapGrowth, (liveHeap()-afterSetup)/mb)
		if r.err != nil {
			return &incorrectError{r.err}
		}
		events := float64(d.cl.Eng.Processed() - ev0)
		nsPerEvent = append(nsPerEvent, hostNS/events)
		allocsPerEvent = append(allocsPerEvent, allocs/events)
		untracedPerOp := hostNS / float64(r.attempted)
		got := nominalModeled(r, p, a, b)
		res.attempted += r.attempted
		res.failed += r.failed

		// Traced.
		runtime.GC()
		tel := herdkv.NewTelemetry()
		tel.Tracer = herdkv.NewTelemetryTracer()
		td, err := w.build(w, tel)
		if err != nil {
			return err
		}
		tr := newRunner(w, td, seed, keys)
		smp := &sampler{d: td}
		var ta, tb snap
		var ca, cb telSnap
		var prof bytes.Buffer
		runtime.GC()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		lap = stopwatch()
		tp := tr.nominal(windowHooks{
			start: func() {
				ta, ca = takeSnap(td), takeTelSnap(tel)
				tr.onArrival = smp.sample
				smp.arm(true)
			},
			end: func() {
				tb, cb = takeSnap(td), takeTelSnap(tel)
				tr.onArrival = nil
				smp.arm(false)
			},
		})
		tracedNS := lap() * 1e9
		pprof.StopCPUProfile()
		if tr.err != nil {
			return &incorrectError{tr.err}
		}
		overhead = append(overhead, tracedNS/float64(tr.attempted)/untracedPerOp)
		res.attempted += tr.attempted
		res.failed += tr.failed
		if !reflect.DeepEqual(got, nominalModeled(tr, tp, ta, tb)) {
			return &incorrectError{fmt.Errorf("seed %d: traced and untraced nominal windows differ", seed)}
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			return &incorrectError{fmt.Errorf("seed %d: modeled results differ between repeats", seed)}
		}

		tm := metrics{}
		telemetryMetrics(tel, ca, cb, tp.served, tm)
		stageMetrics(tel.Tracer, tp.start, tp.end, tm)
		smp.report(tm)
		if traced == nil {
			traced = tm
		} else if !reflect.DeepEqual(traced, tm) {
			return &incorrectError{fmt.Errorf("seed %d: traced metrics differ between repeats", seed)}
		}
		pr, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		pr.addShares(shares)
		return nil
	})
	if err != nil {
		return res, err
	}
	m := metrics{}
	for k, v := range first.layers {
		m.set(k, v)
	}
	for k, v := range traced {
		m.set(k, v)
	}
	m.set("latency.samples", float64(len(first.lat)))
	m.set("fail_ratio", ratio(float64(first.failed), float64(first.attempted)))
	m.set("kv.op_p99_us", herdkv.Time(percentile(first.lat, p99)).Microseconds())
	m.set("sim.host_ns_per_event", median(nsPerEvent))
	m.set("sim.allocs_per_event", median(allocsPerEvent))
	m.set("setup.cluster_s", median(setupCluster))
	m.set("setup.preload_s", median(setupPreload))
	m.set("setup.connect_s", median(setupConnect))
	m.set("host.heap_setup_mb", median(heapSetup))
	m.set("host.heap_growth_mb", median(heapGrowth))
	m.set("trace.overhead", median(overhead))
	var total int64
	for _, v := range shares {
		total += v
	}
	for _, l := range hostLayers {
		m.set("host.self."+l, ratio(float64(shares[l]), float64(total)))
	}
	res.m = m
	return res, nil
}

// nominalModeled collects a nominal window's modeled results, with the
// layer metrics read through accessors at the window's edges a and b.
func nominalModeled(r *runner, p *phase, a, b snap) *modeled {
	m := &modeled{
		lat: p.lat, attempted: r.attempted, failed: r.failed,
		getHits: r.getHits, getMisses: r.getMisses, served: p.served, layers: metrics{},
	}
	layerMetrics(a, b, p.served, m.layers)
	m.layers.set("sim.events_per_op", ratio(float64(b.events-a.events), float64(p.served.ops)))
	return m
}

// sampler reads queue state at every arrival in the traced window.
// It runs inside events the generator already schedules, so it adds no
// event and cannot perturb the simulation.
type sampler struct {
	d                *deployment
	n                int
	coreWait         float64 // sum over samples of the most backlogged core's wait, ps
	queueMax, muxMax int
}

func (s *sampler) arm(on bool) {
	for _, t := range s.d.timers {
		t.armed = on
	}
}

func (s *sampler) sample() {
	s.n++
	worst := herdkv.Time(0)
	for i, srv := range s.d.servers {
		m := s.d.serverMach[i]
		for c := 0; c < srv.Config().NS; c++ {
			worst = max(worst, m.CPU.Core(c).Backlog())
			s.queueMax = max(s.queueMax, srv.QueueDepth(c))
		}
	}
	s.coreWait += float64(worst)
	for _, ep := range s.d.endpoints {
		s.muxMax = max(s.muxMax, ep.Queued())
	}
}

func (s *sampler) report(out metrics) {
	out.set("cpu.core_wait_us", ratio(s.coreWait, float64(s.n))/float64(herdkv.Microsecond))
	out.set("core.queue_depth_max", float64(s.queueMax))
	out.set("mux.queue_depth_max", float64(s.muxMax))
	var fleetLat []int64
	for _, t := range s.d.timers {
		fleetLat = append(fleetLat, t.samples...)
	}
	sortInt64s(fleetLat)
	out.set("fleet.op_p99_us", herdkv.Time(percentile(fleetLat, p99)).Microseconds())
}
