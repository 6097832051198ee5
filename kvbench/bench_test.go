package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"herdkv"
)

func TestPoissonMeanRate(t *testing.T) {
	const rate = 5e6 // ops per virtual second
	p := newPoisson(rand.New(rand.NewSource(42)), rate)
	const n = 200000
	var total herdkv.Time
	for i := 0; i < n; i++ {
		total += p.gap()
	}
	got := n / total.Seconds()
	if math.Abs(got-rate)/rate > 0.01 {
		t.Fatalf("mean rate %.0f, want %.0f within 1%%", got, rate)
	}
}

func TestZipfTopKeyShare(t *testing.T) {
	const n, theta = 1 << 12, 0.99
	z := newZipf(n, theta)
	r := rand.New(rand.NewSource(7))
	const draws = 400000
	top := 0
	for i := 0; i < draws; i++ {
		id := z.next(r)
		if id >= n {
			t.Fatalf("id %d out of range", id)
		}
		if id == z.scatter(0) {
			top++
		}
	}
	want := zipfTopShare(n, theta)
	got := float64(top) / draws
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("top-key share %.4f, analytic %.4f", got, want)
	}
	// scatter is a bijection: distinct ranks land on distinct ids.
	ids := map[uint64]bool{}
	for rank := uint64(0); rank < n; rank++ {
		ids[z.scatter(rank)] = true
	}
	if len(ids) != n {
		t.Fatalf("scatter maps %d ranks onto %d ids", n, len(ids))
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n     int
		want  pct
		found bool
	}{
		{0, pct{}, false},
		{99, pct{}, false},
		{100, pct{9, 10}, true},
		{999, pct{9, 10}, true},
		{1000, pct{99, 100}, true},
		{9999, pct{99, 100}, true},
		{10000, pct{999, 1000}, true},
		{100000, pct{9999, 10000}, true},
	} {
		got, ok := tailLevel(c.n)
		if got != c.want || ok != c.found {
			t.Errorf("tailLevel(%d) = %v %v, want %v %v", c.n, got, ok, c.want, c.found)
		}
		if ok && beyond(got, c.n) < minBeyond {
			t.Errorf("tailLevel(%d) = %v leaves %d beyond", c.n, got, beyond(got, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    pct
		want int64
	}{{p50, 500}, {p99, 990}, {p999, 999}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile %v = %d, want %d", c.p, got, c.want)
		}
	}
	if beyond(p999, 1000) != 1 {
		t.Errorf("beyond(p999, 1000) = %d, want 1", beyond(p999, 1000))
	}
}

// linearProbe models a system whose p99 grows with offered rate and
// diverges at capacity.
func linearProbe(capacity float64) func(float64) probeResult {
	return func(rate float64) probeResult {
		if rate >= capacity {
			return probeResult{p99: math.Inf(1)}
		}
		p := 2 + 10*rate/capacity
		return probeResult{p99: p, ok: p <= 8}
	}
}

func TestSearchSLODeterministicAndMonotone(t *testing.T) {
	prev := 0.0
	for c := 10.0; c <= 30; c += 0.5 {
		a, okA := searchSLO(4, 40, searchSteps, 8, linearProbe(c))
		b, okB := searchSLO(4, 40, searchSteps, 8, linearProbe(c))
		if !okA || !okB || a != b {
			t.Fatalf("capacity %g: %g %v vs %g %v", c, a, okA, b, okB)
		}
		if a < prev {
			t.Fatalf("capacity %g: slo %g below the answer %g for a smaller capacity", c, a, prev)
		}
		// The accepted region is p99 <= 8, i.e. rate <= 0.6 * capacity.
		if want := 0.6 * c; math.Abs(a-want) > (40-4)/math.Pow(2, searchSteps) {
			t.Fatalf("capacity %g: slo %g, want about %g", c, a, want)
		}
		prev = a
	}
	if _, ok := searchSLO(4, 40, searchSteps, 8, linearProbe(5)); ok {
		t.Fatal("a refused lower bound must be reported")
	}
	if _, ok := searchSLO(4, 40, searchSteps, 8, linearProbe(100)); ok {
		t.Fatal("an accepted upper bound must be reported")
	}
}

func TestStackLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"herdkv/internal/sim.(*Engine).Step", "main.run"}, "sim"},
		{[]string{"container/heap.Pop", "herdkv/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"sort.Search", "herdkv/internal/mica.(*Cache).Get"}, "mica"},
		{[]string{"runtime.mallocgc", "herdkv/internal/verbs.(*QP).PostSend"}, "runtime-other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime-gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime-gc"},
		{[]string{"herdkv/internal/kv.Key.Hash64", "herdkv/internal/core.(*Server).serve"}, "core"},
		{[]string{"herdkv/internal/cluster.(*Cluster).AddMachine"}, "sim"},
		{[]string{"herdkv/internal/fault.(*Injector).fate"}, "wire"},
		{[]string{"herdkv.NewCluster", "main.buildSingle"}, "bench"},
		{[]string{"main.(*runner).issue.func1", "herdkv/internal/nearcache.(*Cache).deliver"}, "bench"},
		{[]string{"time.Now"}, "runtime-other"},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	for pkg, l := range packageLayer {
		found := false
		for _, h := range hostLayers {
			found = found || h == l
		}
		if !found {
			t.Errorf("package %s maps to %s, which is not a reported layer", pkg, l)
		}
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = splitmix64(x)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	acc := map[string]int64{}
	p.addShares(acc)
	if acc["bench"] == 0 {
		t.Fatalf("no samples attributed to the benchmark's own busy loop: %v (x=%d)", acc, x)
	}
}

func TestValueCheck(t *testing.T) {
	const size = 32
	v := make([]byte, size)
	fillValue(v, 5, 3)
	if err := checkValue(v, 5, size, 3); err != nil {
		t.Fatalf("valid value rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func([]byte) []byte
		id     uint64
		maxSeq uint64
		want   error
	}{
		{"short", func(b []byte) []byte { return b[:size-1] }, 5, 3, errMalformed},
		{"foreign", func(b []byte) []byte { return b }, 6, 3, errForeign},
		{"bitflip", func(b []byte) []byte { b[size-1] ^= 1; return b }, 5, 3, errCorrupt},
		{"unwritten", func(b []byte) []byte { return b }, 5, 2, errUnwritten},
	} {
		b := c.mutate(append([]byte(nil), v...))
		if err := checkValue(b, c.id, size, c.maxSeq); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	// A filler rewritten consistently with a recomputed checksum is
	// still caught: the filler is a function of (id, seq).
	b := append([]byte(nil), v...)
	b[size-1] ^= 1
	putSum(b)
	if err := checkValue(b, 5, size, 3); !errors.Is(err, errCorrupt) {
		t.Errorf("re-summed filler: got %v", err)
	}
}

func putSum(b []byte) {
	s := valueSum(b)
	for i := 0; i < 8; i++ {
		b[16+i] = byte(s >> (8 * i))
	}
}

func TestKeysDistinctAndNonZero(t *testing.T) {
	seen := map[herdkv.Key]bool{}
	for id := uint64(0); id < 1<<16; id++ {
		k := keyOf(id)
		if k == (herdkv.Key{}) || seen[k] {
			t.Fatalf("key %d is zero or repeated", id)
		}
		seen[k] = true
	}
}

// TestCatalogMatchesBenchmarkJSON is the drift check: every metric the
// runner emits is listed in BENCHMARK.json with the same unit and
// direction, and nothing else is.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the runner has %d", names, len(workloads))
	}
}

func sameDefs(t *testing.T, what string, json, code []metricDef) {
	t.Helper()
	in := map[string]metricDef{}
	for _, d := range json {
		in[d.name] = d
	}
	for _, d := range code {
		j, ok := in[d.name]
		if !ok {
			t.Errorf("%s: runner emits %s, missing from BENCHMARK.json", what, d.name)
			continue
		}
		if j != d {
			t.Errorf("%s: %s is %+v in BENCHMARK.json, %+v in the runner", what, d.name, j, d)
		}
		delete(in, d.name)
	}
	for name := range in {
		t.Errorf("%s: BENCHMARK.json lists %s, which the runner does not emit", what, name)
	}
}

func TestCompleteRejectsMissingAndExtra(t *testing.T) {
	m := metrics{}
	for _, d := range endToEnd {
		m.set(d.name, 1)
	}
	if err := m.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	m.set("bogus", 1)
	if err := m.complete(endToEnd); err == nil {
		t.Fatal("extra metric accepted")
	}
	delete(m, "bogus")
	delete(m, "p50_us")
	if err := m.complete(endToEnd); err == nil {
		t.Fatal("missing metric accepted")
	}
}

// zipfTopShare is the analytic probability of rank 0: 1 / H(n, theta).
func zipfTopShare(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return 1 / sum
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "read-uniform", "-trace", "2"},
		{"-workload", "read-uniform", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q; want a failure and no result", args, code, out.String())
		}
	}
}
