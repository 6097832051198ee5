package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/nearcache"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/telemetry"
	"herdkv/internal/workload"
)

// HotkeyResult is the machine-readable output of the hot-key survival
// comparison (written as BENCH_hotkey.json by `make bench`).
type HotkeyResult struct {
	Cluster     string  `json:"cluster"`
	Shards      int     `json:"shards"`
	Replication int     `json:"replication"`
	ZipfTheta   float64 `json:"zipf_theta"`
	// UncachedMops / CachedMops are steady-state goodput for the two
	// arms; CacheSpeedup is their ratio.
	UncachedMops float64 `json:"uncached_mops"`
	CachedMops   float64 `json:"cached_mops"`
	CacheSpeedup float64 `json:"cache_speedup"`
	// CacheHitRate is cache.hits / (cache.hits + cache.misses) across
	// all near caches in the cached arm.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// UncachedOriginGets / CachedOriginGets count GETs the origin
	// shards actually served during the measurement span — the load the
	// near cache absorbs.
	UncachedOriginGets uint64 `json:"uncached_origin_gets"`
	CachedOriginGets   uint64 `json:"cached_origin_gets"`
	// HotWidened counts hot reads the fleet steered off-primary in the
	// cached arm (hot-key detection is on there).
	HotWidened uint64 `json:"hot_widened"`
}

// hotkey experiment dimensions.
const (
	hotkeyShards    = 3
	hotkeyClients   = 12
	hotkeyKeys      = 4096
	hotkeyValueSize = 32
	hotkeyLeaseTTL  = 25 * sim.Microsecond
)

// Hotkey runs the paper's skewed workload (Zipf .99, 95% GET) against
// a replicated fleet twice: once with clients reading through plain
// fleet handles, once with every client behind a leased near cache and
// fleet-side hot-key widening. The skew concentrates reads on a few
// keys; the cached arm serves repeats locally inside the lease and
// spreads the residual hot reads across replicas, so it must beat the
// uncached arm on goodput while sending the origin shards fewer GETs.
func Hotkey(spec cluster.Spec) (*Table, HotkeyResult) {
	herdCfg := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.MaxClients = hotkeyClients
		cfg.Mica = mica.Config{IndexBuckets: hotkeyKeys / 2, BucketSlots: 8, LogBytes: hotkeyKeys * 64}
		return cfg
	}

	originGets := func(d *fleet.Deployment) uint64 {
		var sum uint64
		for i := 0; i < hotkeyShards; i++ {
			g, _, _ := d.Server(i).Stats()
			sum += g
		}
		return sum
	}

	arm := func(cached bool) (mops float64, origin uint64, hitRate float64, widened uint64) {
		cl := cluster.New(spec, hotkeyShards+hotkeyClients, 1)
		fcfg := fleet.DefaultConfig()
		fcfg.Herd = herdCfg()
		if cached {
			fcfg.Herd.LeaseTTL = hotkeyLeaseTTL
			fcfg.HotKeyTrack = 16
			// The near cache absorbs repeat reads, so the fleet tracker
			// only sees fill traffic — at most one read per key per lease
			// TTL per client. The threshold counts fills, not raw reads:
			// 4 fills in a 100us window means the key is re-fetched every
			// TTL, i.e. continuously hot behind the cache.
			fcfg.HotKeyThreshold = 4
		}
		machines := make([]*cluster.Machine, hotkeyShards)
		for i := range machines {
			machines[i] = cl.Machine(i)
		}
		d, err := fleet.NewDeployment(machines, fcfg)
		if err != nil {
			panic(err)
		}
		for k := uint64(0); k < hotkeyKeys; k++ {
			key := kv.FromUint64(k)
			if err := d.Preload(key, workload.ExpectedValue(key, hotkeyValueSize)); err != nil {
				panic(err)
			}
		}
		tel := telemetry.New()
		fleetClients := make([]*fleet.Client, hotkeyClients)
		clients := make([]kv.KV, hotkeyClients)
		for i := range clients {
			fc, err := d.ConnectClient(cl.Machine(hotkeyShards + i))
			if err != nil {
				panic(err)
			}
			fleetClients[i] = fc
			if cached {
				clients[i] = nearcache.New(fc, cl.Eng, tel,
					nearcache.Config{TTL: hotkeyLeaseTTL, Leases: true})
			} else {
				clients[i] = fc
			}
		}

		var completed uint64
		stopped := false
		for i, c := range clients {
			c := c
			gen := workload.NewGenerator(workload.Skewed(hotkeyKeys, hotkeyValueSize, int64(i+1)))
			issue := func(done func()) {
				if stopped {
					return
				}
				op := gen.Next()
				fin := func(kv.Result) { completed++; done() }
				if op.IsGet {
					mustPost(c.Get(op.Key, fin))
				} else {
					mustPost(c.Put(op.Key, workload.ExpectedValue(op.Key, hotkeyValueSize), fin))
				}
			}
			cl.Eng.At(sim.Time(i)*sim.Microsecond, func() { pump(4, issue) })
		}
		cl.Eng.RunFor(Warmup)
		start, originStart := completed, originGets(d)
		cl.Eng.RunFor(Span)
		stopped = true

		mops = stats.Throughput(completed-start, Span)
		origin = originGets(d) - originStart
		hits := tel.Counter("cache.hits").Value()
		misses := tel.Counter("cache.misses").Value()
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		for _, fc := range fleetClients {
			widened += fc.HotWidened()
		}
		return mops, origin, hitRate, widened
	}

	res := HotkeyResult{
		Cluster:     spec.Name,
		Shards:      hotkeyShards,
		Replication: 2,
		ZipfTheta:   0.99,
	}
	res.UncachedMops, res.UncachedOriginGets, _, _ = arm(false)
	res.CachedMops, res.CachedOriginGets, res.CacheHitRate, res.HotWidened = arm(true)
	if res.UncachedMops > 0 {
		res.CacheSpeedup = res.CachedMops / res.UncachedMops
	}

	t := &Table{
		ID:      "hotkey",
		Title:   fmt.Sprintf("Hot-key survival, Zipf(.99) 95%% GET, %d B items — %s", hotkeyValueSize+len(kv.Key{}), spec.Name),
		Columns: []string{"arm", "Mops", "origin GETs", "cache hit rate"},
	}
	t.AddRow("fleet, uncached", cell(res.UncachedMops),
		fmt.Sprintf("%d", res.UncachedOriginGets), "-")
	t.AddRow("near cache + leases + widening", cell(res.CachedMops),
		fmt.Sprintf("%d", res.CachedOriginGets),
		fmt.Sprintf("%.0f%%", res.CacheHitRate*100))
	t.AddNote("%d clients over %d shards (R=%d); lease TTL %dus; cached arm %.1fx goodput, %d hot reads widened off-primary",
		hotkeyClients, hotkeyShards, res.Replication, hotkeyLeaseTTL/sim.Microsecond, res.CacheSpeedup, res.HotWidened)
	return t, res
}
