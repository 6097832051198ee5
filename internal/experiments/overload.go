package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
)

// OverloadPoint is one offered-load level of the sweep, measured with a
// fixed server capacity (one process).
type OverloadPoint struct {
	// Chains is the number of closed-loop request chains offered — the
	// load knob. One chain sustains roughly 1/RTT ops.
	Chains int `json:"chains"`
	// GoodputMops counts operations that resolved served (hit or miss)
	// during the measurement span — duplicated service and terminal
	// failures contribute nothing.
	GoodputMops float64 `json:"goodput_mops"`
	// P99US is the 99th-percentile served-operation latency in
	// microseconds.
	P99US float64 `json:"p99_us"`
	// Shed counts requests refused at poll time with busy pushback.
	Shed uint64 `json:"shed"`
	// BusyRx counts busy responses clients received.
	BusyRx uint64 `json:"busy_rx"`
	// Failed counts terminally failed operations (timeouts in the
	// baseline; deadline-on-busy would land here too).
	Failed uint64 `json:"failed"`
	// Retries counts application-level request retransmissions — the
	// retry storm the controller exists to prevent.
	Retries uint64 `json:"retries"`
}

// OverloadResult is the machine-readable output of the overload sweep
// (written as BENCH_overload.json by `make bench`).
type OverloadResult struct {
	Cluster    string          `json:"cluster"`
	Baseline   []OverloadPoint `json:"baseline"`
	Controlled []OverloadPoint `json:"controlled"`
}

// Overload sweep shape: one server process (~6 Mops of MICA service
// capacity) under 16 client machines whose closed-loop chain count
// climbs to far past saturation (~13 chains at a ~2 us RTT).
var overloadChains = []int{16, 32, 64, 128, 256}

const (
	overloadClients   = 16
	overloadKeys      = 4096
	overloadValueSize = 32
	// overloadAdmission caps the per-process queue for the controlled
	// runs: ~12 x 160 ns of queueing keeps admitted-op delay well
	// under the 5 us retry timeout, so admitted work never re-enters
	// the retry path.
	overloadAdmission = 12
)

// overloadConfig builds the per-run HERD config. The baseline has the
// pre-overload-controller behavior: blind windows, no admission, and a
// retry budget that turns queueing delay into duplicated service and
// terminal timeouts. The controlled config adds poll-time shedding and
// client AIMD; OpDeadline stays off so shed operations wait out the
// hint instead of failing.
func overloadConfig(window int, controlled bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 1
	cfg.MaxClients = overloadClients
	cfg.Window = window
	cfg.Mica = mica.Config{IndexBuckets: overloadKeys / 2, BucketSlots: 8, LogBytes: overloadKeys * 64}
	cfg.RetryTimeout = 5 * sim.Microsecond
	cfg.MaxRetries = 3
	if controlled {
		cfg.AdmissionLimit = overloadAdmission
		cfg.AdaptiveWindow = true
	}
	return cfg
}

// overloadPoint measures one (chains, controller) combination on a
// fresh cluster.
func overloadPoint(spec cluster.Spec, chains int, controlled bool) OverloadPoint {
	perClient := (chains + overloadClients - 1) / overloadClients
	cl := cluster.New(spec, 1+overloadClients, 1)
	srv, err := core.NewServer(cl.Machine(0), overloadConfig(perClient, controlled))
	if err != nil {
		panic(err)
	}
	for k := uint64(0); k < overloadKeys; k++ {
		key := kv.FromUint64(k)
		if err := srv.Preload(key, valueOf(key)); err != nil {
			panic(err)
		}
	}
	clients := make([]*core.Client, overloadClients)
	for i := range clients {
		clients[i], err = srv.ConnectClient(cl.Machine(1 + i))
		if err != nil {
			panic(err)
		}
	}

	var served uint64
	lat := stats.NewLatencyRecorder(0)
	measuring := false
	stopped := false
	for i, c := range clients {
		c := c
		seq := uint64(i) * 977
		issue := func(done func()) {
			if stopped {
				return
			}
			seq++
			key := kv.FromUint64(seq % overloadKeys)
			mustPost(c.Get(key, func(r kv.Result) {
				if r.Err == nil && measuring {
					served++
					lat.Record(r.Latency)
				}
				done()
			}))
		}
		// Stagger chain starts so the opening burst is not one giant
		// synchronized doorbell.
		cl.Eng.At(sim.Time(i)*sim.Microsecond, func() { pump(perClient, issue) })
	}
	cl.Eng.RunFor(Warmup)
	measuring = true
	cl.Eng.RunFor(Span)
	measuring = false
	stopped = true

	pt := OverloadPoint{
		Chains:      chains,
		GoodputMops: stats.Throughput(served, Span),
		P99US:       float64(lat.Percentile(99)) / float64(sim.Microsecond),
		Shed:        srv.Shed(),
	}
	for _, c := range clients {
		pt.BusyRx += c.BusyResponses()
		pt.Failed += c.Failed()
		pt.Retries += c.Retries()
	}
	return pt
}

// valueOf builds key's stored value for the overload sweep.
func valueOf(key kv.Key) []byte {
	v := make([]byte, overloadValueSize)
	copy(v, key[:])
	return v
}

// Overload runs the goodput-and-tail-vs-offered-load sweep with and
// without the overload controller. The uncontrolled baseline collapses
// past saturation — queueing delay exceeds the retry timeout, so
// service capacity drains into duplicated requests and terminal
// timeouts — while the controller sheds at poll time (~zero CPU per
// rejected request), paces clients via AIMD, and keeps goodput at the
// service ceiling with bounded tails.
func Overload(spec cluster.Spec) (*Table, OverloadResult) {
	res := OverloadResult{Cluster: spec.Name}
	for _, chains := range overloadChains {
		res.Baseline = append(res.Baseline, overloadPoint(spec, chains, false))
		res.Controlled = append(res.Controlled, overloadPoint(spec, chains, true))
	}

	t := &Table{
		ID:    "overload",
		Title: fmt.Sprintf("Overload sweep, GETs on one server process — %s", spec.Name),
		Columns: []string{"chains", "base Mops", "base p99 us", "base failed",
			"ctl Mops", "ctl p99 us", "ctl shed"},
	}
	for i, b := range res.Baseline {
		c := res.Controlled[i]
		t.AddRow(fmt.Sprintf("%d", b.Chains),
			cell(b.GoodputMops), fmt.Sprintf("%.1f", b.P99US), fmt.Sprintf("%d", b.Failed),
			cell(c.GoodputMops), fmt.Sprintf("%.1f", c.P99US), fmt.Sprintf("%d", c.Shed))
	}
	t.AddNote("baseline: blind windows (up to W=%d/client), 5 us retry timeout; controlled: admission cap %d + busy pushback + client AIMD",
		overloadChains[len(overloadChains)-1]/overloadClients, overloadAdmission)
	return t, res
}
