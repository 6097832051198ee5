package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/mux"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
)

// ClientsPoint is one client-count level of the connection-scalability
// sweep (Figure 12).
type ClientsPoint struct {
	// Clients is the number of logical closed-loop clients offered.
	Clients int `json:"clients"`
	// ServerQPs is how many connected QPs the server holds for them —
	// equal to Clients without muxing, hosts x pool size with it. This
	// is the quantity the RNIC's context cache is sized against.
	ServerQPs int `json:"server_qps"`
	// GoodputMops counts served operations during the measurement span.
	GoodputMops float64 `json:"goodput_mops"`
	// P99US is the 99th-percentile served-operation latency in
	// microseconds (queue-inclusive, so it grows with client count in a
	// closed loop even at flat throughput).
	P99US float64 `json:"p99_us"`
	// RecvCtxHitRate is the server NIC's receive-context-cache hit rate
	// over the run — the cliff's direct mechanism (nic.ctxcache.recv.*).
	RecvCtxHitRate float64 `json:"recv_ctx_hit_rate"`
	// RecvCtxEvicts counts receive-context evictions at the server NIC
	// (nic.ctxcache.recv.evicts): nonzero means the working set of
	// connected QPs no longer fits on chip.
	RecvCtxEvicts uint64 `json:"recv_ctx_evicts"`
}

// ClientsResult is the machine-readable output of the client-scaling
// sweep (written as BENCH_clients.json by `make bench`).
type ClientsResult struct {
	Cluster string         `json:"cluster"`
	NoMux   []ClientsPoint `json:"no_mux"`
	Mux     []ClientsPoint `json:"mux"`
}

// Client-count sweep: from comfortably inside the ConnectX-3 receive
// context cache (RecvCtxCap = 280) to 10k clients, far past it.
var clientsSweep = []int{100, 260, 500, 1000, 2000, 5000, 10000}

const (
	// clientsHosts is the number of client machines both arms use; only
	// how the logical clients reach the server differs.
	clientsHosts = 32
	// clientsMuxQPs is each endpoint's pool size in the muxed arm:
	// 32 hosts x 4 QPs = 128 connected QPs at the server, inside the
	// 280-entry receive context cache at every sweep point.
	clientsMuxQPs    = 4
	clientsKeys      = 4096
	clientsValueSize = 32
)

// clientsConfig builds the per-run HERD config: W=1 per connected
// client (the region for 10k direct clients is already 40 MB) and four
// server processes, so the CPU ceiling sits well above the
// context-thrashed NIC ceiling and the cliff is visible in goodput.
func clientsConfig(maxClients int) core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 4
	cfg.MaxClients = maxClients
	cfg.Window = 1
	cfg.Mica = mica.Config{IndexBuckets: clientsKeys / 2, BucketSlots: 8, LogBytes: clientsKeys * 64}
	return cfg
}

// clientsShare splits n logical clients across the client hosts.
func clientsShare(n, host int) int {
	s := n / clientsHosts
	if host < n%clientsHosts {
		s++
	}
	return s
}

// clientsPoint measures one (clients, muxed) combination on a fresh
// cluster: `clients` closed-loop GET chains, reaching the server either
// as one connected QP set each (muxed=false) or as channels over a
// 4-QP endpoint per host (muxed=true).
func clientsPoint(spec cluster.Spec, clients int, muxed bool) ClientsPoint {
	maxClients := clients
	if muxed {
		maxClients = clientsHosts * clientsMuxQPs
	}
	cl := cluster.New(spec, 1+clientsHosts, 1)
	srv, err := core.NewServer(cl.Machine(0), clientsConfig(maxClients))
	if err != nil {
		panic(err)
	}
	for k := uint64(0); k < clientsKeys; k++ {
		key := kv.FromUint64(k)
		v := make([]byte, clientsValueSize)
		copy(v, key[:])
		if err := srv.Preload(key, v); err != nil {
			panic(err)
		}
	}

	var kvs []kv.KV
	serverQPs := 0
	for h := 0; h < clientsHosts; h++ {
		n := clientsShare(clients, h)
		if n == 0 {
			continue
		}
		if muxed {
			ep, err := mux.Connect(srv, cl.Machine(1+h), mux.Config{QPs: clientsMuxQPs})
			if err != nil {
				panic(err)
			}
			serverQPs += ep.PoolSize()
			for j := 0; j < n; j++ {
				ch, err := ep.OpenChannel()
				if err != nil {
					panic(err)
				}
				kvs = append(kvs, ch)
			}
		} else {
			for j := 0; j < n; j++ {
				c, err := srv.ConnectClient(cl.Machine(1 + h))
				if err != nil {
					panic(err)
				}
				kvs = append(kvs, c)
				serverQPs++
			}
		}
	}

	var served uint64
	lat := stats.NewLatencyRecorder(0)
	measuring := false
	stopped := false
	for i, c := range kvs {
		c := c
		seq := uint64(i) * 977
		issue := func(done func()) {
			if stopped {
				return
			}
			seq++
			key := kv.FromUint64(seq % clientsKeys)
			mustPost(c.Get(key, func(r kv.Result) {
				if r.Err == nil && measuring {
					served++
					lat.Record(r.Latency)
				}
				done()
			}))
		}
		// Spread chain starts across the warmup window so 10k clients
		// do not ring one synchronized doorbell at t=0.
		off := Warmup * sim.Time(i) / sim.Time(len(kvs))
		cl.Eng.At(off, func() { pump(1, issue) })
	}
	cl.Eng.RunFor(Warmup)
	measuring = true
	cl.Eng.RunFor(Span)
	measuring = false
	stopped = true

	srvNIC := cl.Machine(0).Verbs.NIC()
	return ClientsPoint{
		Clients:        clients,
		ServerQPs:      serverQPs,
		GoodputMops:    stats.Throughput(served, Span),
		P99US:          float64(lat.Percentile(99)) / float64(sim.Microsecond),
		RecvCtxHitRate: srvNIC.RecvCtxHitRate(),
		RecvCtxEvicts:  srvNIC.RecvCtxCache().Evictions(),
	}
}

// Clients runs the connection-scalability sweep with and without the
// endpoint tier. Directly connected clients reproduce Figure 12: once
// the count passes the NIC's receive-context-cache capacity, every
// inbound request WRITE misses the QP context cache, the fetch stalls
// the NIC's processing units, and throughput falls off a cliff. Muxed
// clients ride 4-QP endpoints (internal/mux), pinning the server's
// connected-QP count at 128 regardless of client count, so the context
// working set always fits and throughput stays flat
// (docs/SCALABILITY.md).
func Clients(spec cluster.Spec) (*Table, ClientsResult) {
	res := ClientsResult{Cluster: spec.Name}
	for _, n := range clientsSweep {
		res.NoMux = append(res.NoMux, clientsPoint(spec, n, false))
		res.Mux = append(res.Mux, clientsPoint(spec, n, true))
	}

	t := &Table{
		ID:    "clients",
		Title: fmt.Sprintf("Client scaling, closed-loop GETs — %s", spec.Name),
		Columns: []string{"clients", "direct QPs", "direct Mops", "direct ctx hit",
			"mux QPs", "mux Mops", "mux ctx hit"},
	}
	for i, d := range res.NoMux {
		m := res.Mux[i]
		t.AddRow(fmt.Sprintf("%d", d.Clients),
			fmt.Sprintf("%d", d.ServerQPs), cell(d.GoodputMops), fmt.Sprintf("%.3f", d.RecvCtxHitRate),
			fmt.Sprintf("%d", m.ServerQPs), cell(m.GoodputMops), fmt.Sprintf("%.3f", m.RecvCtxHitRate))
	}
	t.AddNote("direct: one connected UC QP per client (Figure 12); mux: %d endpoints x %d QPs, channels multiplexed (internal/mux); recv ctx cache %d entries",
		clientsHosts, clientsMuxQPs, spec.NIC.RecvCtxCap)
	return t, res
}
