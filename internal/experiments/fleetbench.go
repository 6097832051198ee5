package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// FleetBenchResult is the machine-readable output of the scale-out
// comparison (written as BENCH_fleet.json by `make bench`).
type FleetBenchResult struct {
	Cluster      string  `json:"cluster"`
	Shards       int     `json:"shards"`
	Replication  int     `json:"replication"`
	SingleMops   float64 `json:"single_mops"`
	ShardedMops  float64 `json:"sharded_mops"`
	FleetMops    float64 `json:"fleet_mops"`
	FleetSpeedup float64 `json:"fleet_speedup_vs_single"`
}

// fleetBenchShards is the deployment size compared against one server.
const fleetBenchShards = 4

// FleetBench compares the three deployment shapes on the same
// read-intensive closed-loop workload: one HERD server, a 4-shard
// static ShardedDeployment, and a 4-shard R=2 consistent-hash fleet.
// The fleet pays replicated writes and ring lookups; the benchmark
// quantifies what is left of the 4x machine count.
func FleetBench(spec cluster.Spec) (*Table, FleetBenchResult) {
	const (
		clientsPerShard = 4
		keys            = 16384
		valueSize       = 32
	)

	herdCfg := func(nClients int) core.Config {
		cfg := core.DefaultConfig()
		cfg.MaxClients = nClients
		cfg.Mica = mica.Config{IndexBuckets: keys / 2, BucketSlots: 8, LogBytes: keys * 64}
		return cfg
	}

	// drive measures steady-state Mops over clients (any KV system).
	drive := func(cl *cluster.Cluster, clients []kv.KV, window int) float64 {
		var completed uint64
		stopped := false
		for i, c := range clients {
			c := c
			gen := workload.NewGenerator(workload.ReadIntensive(keys, valueSize, int64(i+1)))
			issue := func(done func()) {
				if stopped {
					return
				}
				op := gen.Next()
				fin := func(kv.Result) { completed++; done() }
				if op.IsGet {
					mustPost(c.Get(op.Key, fin))
				} else {
					mustPost(c.Put(op.Key, workload.ExpectedValue(op.Key, valueSize), fin))
				}
			}
			cl.Eng.At(sim.Time(i)*sim.Microsecond, func() { pump(window, issue) })
		}
		cl.Eng.RunFor(Warmup)
		start := completed
		cl.Eng.RunFor(Span)
		stopped = true
		return stats.Throughput(completed-start, Span)
	}

	preload := func(insert func(kv.Key, []byte) error) {
		for k := uint64(0); k < keys; k++ {
			key := kv.FromUint64(k)
			if err := insert(key, workload.ExpectedValue(key, valueSize)); err != nil {
				panic(err)
			}
		}
	}

	// The single server gets enough load to sit at its ceiling; the
	// 4-shard deployments get 4x that, so each measures aggregate
	// capacity rather than offered load.
	single := func() float64 {
		nClients := clientsPerShard * fleetBenchShards
		cl := cluster.New(spec, 1+nClients, 1)
		srv, err := core.NewServer(cl.Machine(0), herdCfg(nClients))
		if err != nil {
			panic(err)
		}
		preload(srv.Preload)
		clients := make([]kv.KV, nClients)
		for i := range clients {
			c, err := srv.ConnectClient(cl.Machine(1 + i))
			if err != nil {
				panic(err)
			}
			clients[i] = c
		}
		return drive(cl, clients, 4)
	}

	serverMachines := func(cl *cluster.Cluster) []*cluster.Machine {
		out := make([]*cluster.Machine, fleetBenchShards)
		for i := range out {
			out[i] = cl.Machine(i)
		}
		return out
	}

	sharded := func() float64 {
		nClients := clientsPerShard * fleetBenchShards * fleetBenchShards
		cl := cluster.New(spec, fleetBenchShards+nClients, 1)
		d, err := core.NewShardedDeployment(serverMachines(cl), herdCfg(nClients))
		if err != nil {
			panic(err)
		}
		preload(d.Preload)
		clients := make([]kv.KV, nClients)
		for i := range clients {
			c, err := d.ConnectClient(cl.Machine(fleetBenchShards + i))
			if err != nil {
				panic(err)
			}
			clients[i] = c
		}
		return drive(cl, clients, 4)
	}

	replicated := func() float64 {
		nClients := clientsPerShard * fleetBenchShards * fleetBenchShards
		cl := cluster.New(spec, fleetBenchShards+nClients, 1)
		fcfg := fleet.DefaultConfig()
		fcfg.Herd = herdCfg(nClients)
		d, err := fleet.NewDeployment(serverMachines(cl), fcfg)
		if err != nil {
			panic(err)
		}
		preload(d.Preload)
		clients := make([]kv.KV, nClients)
		for i := range clients {
			c, err := d.ConnectClient(cl.Machine(fleetBenchShards + i))
			if err != nil {
				panic(err)
			}
			clients[i] = c
		}
		return drive(cl, clients, 4)
	}

	res := FleetBenchResult{
		Cluster:     spec.Name,
		Shards:      fleetBenchShards,
		Replication: 2,
		SingleMops:  single(),
		ShardedMops: sharded(),
		FleetMops:   replicated(),
	}
	if res.SingleMops > 0 {
		res.FleetSpeedup = res.FleetMops / res.SingleMops
	}

	t := &Table{
		ID:      "fleet-bench",
		Title:   fmt.Sprintf("Scale-out comparison, read-intensive 48 B items — %s", spec.Name),
		Columns: []string{"deployment", "machines", "Mops", "vs single"},
	}
	t.AddRow("single HERD server", "1", cell(res.SingleMops), "1.0x")
	t.AddRow("sharded (no replication)", fmt.Sprintf("%d", res.Shards),
		cell(res.ShardedMops), fmt.Sprintf("%.1fx", res.ShardedMops/res.SingleMops))
	t.AddRow(fmt.Sprintf("fleet (R=%d)", res.Replication), fmt.Sprintf("%d", res.Shards),
		cell(res.FleetMops), fmt.Sprintf("%.1fx", res.FleetSpeedup))
	t.AddNote("%d clients on the single server, %d on the %d-shard deployments (window 4); fleet pays replicated writes and ring routing",
		clientsPerShard*fleetBenchShards, clientsPerShard*fleetBenchShards*fleetBenchShards, fleetBenchShards)
	return t, res
}
