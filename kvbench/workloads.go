package main

import (
	"encoding/binary"
	"fmt"
	"syscall"

	"herdkv"
)

// workload is one traffic mix on one deployment.
type workload struct {
	name string

	keys      uint64
	valueSize int
	getPct    int  // percent of ops that are GETs
	zipf      bool // Zipf(0.99) keys; uniform otherwise

	nominalMops float64     // the fixed offered rate of the latency phase
	nominalOps  int         // operations due in the nominal window
	p99Limit    herdkv.Time // the SLO that slo_mops is searched against
	searchLo    float64     // slo_mops search bracket, Mops
	searchHi    float64

	build func(w *workload, tel *herdkv.Telemetry) (*deployment, error)
}

// deployment is a built cluster plus every handle the runner reads
// layer counters through.
type deployment struct {
	cl      *herdkv.Cluster
	clients []herdkv.KV // what the generator drives, one per simulated client

	servers    []*herdkv.Server
	serverMach []*herdkv.Machine // servers[i] runs on serverMach[i]
	fleetCli   []*herdkv.FleetClient
	endpoints  []*herdkv.MuxEndpoint
	timers     []*timedKV // fleet.op timing wrappers, one per fleet client

	setup setupTimes
}

// setupTimes are host seconds spent in each set-up step.
type setupTimes struct{ cluster, preload, connect float64 }

func (s setupTimes) total() float64 { return s.cluster + s.preload + s.connect }

// cpuSeconds is the process's CPU time so far, user and system, over
// all threads: the simulation and the garbage collector's workers.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stopwatch measures host CPU seconds from now. The benchmark times
// host work in CPU time, not wall time, so that other load on a shared
// machine does not show up as a slower herdkv.
func stopwatch() func() float64 {
	t0 := cpuSeconds()
	return func() float64 { return cpuSeconds() - t0 }
}

// The workloads and why each was chosen are described in README.md.
var workloads = []*workload{
	{
		// The paper's configuration: the request path saturates, and
		// wal, fleet, nearcache and mux are bypassed.
		name: "read-uniform",
		keys: 1 << 20, valueSize: 32, getPct: 95,
		nominalMops: 20, nominalOps: 100000, p99Limit: 5 * herdkv.Microsecond, searchLo: 16, searchHi: 32,
		build: func(w *workload, tel *herdkv.Telemetry) (*deployment, error) {
			return buildSingle(w, tel, 17, 3, 1<<17)
		},
	},
	{
		// Writes beside reads through every layer beyond the paper.
		name: "rw-zipf-fleet",
		keys: 1 << 18, valueSize: 256, getPct: 50, zipf: true,
		nominalMops: 10, nominalOps: 50000, p99Limit: 10 * herdkv.Microsecond, searchLo: 6, searchHi: 24,
		build: buildFleet,
	},
	{
		// Fig 12: more connections than the NIC's context cache holds.
		// At 6 Mops over half the operations meet no queue, and p50 is
		// the same unloaded round trip on every seed; 7 Mops is ~70%
		// of slo_mops.
		name: "many-conns",
		keys: 1 << 16, valueSize: 32, getPct: 95,
		nominalMops: 7, nominalOps: 150000, p99Limit: 10 * herdkv.Microsecond, searchLo: 3, searchHi: 18,
		build: func(w *workload, tel *herdkv.Telemetry) (*deployment, error) {
			return buildSingle(w, tel, 200, 3, 1<<13)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clusterSeed fixes the deployment: machine seeds and the fleet's ring
// placement, and with it which shard the hottest Zipf keys land on.
// -seed varies only the inputs, so every seed measures the same system.
const clusterSeed = 1

// newCluster builds n machines, instrumented when tel is non-nil.
func newCluster(n int, tel *herdkv.Telemetry) *herdkv.Cluster {
	cl := herdkv.NewCluster(herdkv.Apt(), n, clusterSeed)
	if tel != nil {
		cl.SetTelemetry(tel)
	}
	return cl
}

// buildSingle is one HERD server (the paper's 6 processes) on machine
// 0 and perMachine direct clients on each of machines 1..clientMachines.
// buckets sizes each MICA partition's index so every key stays resident.
func buildSingle(w *workload, tel *herdkv.Telemetry, clientMachines, perMachine, buckets int) (*deployment, error) {
	d := &deployment{}
	lap := stopwatch()
	d.cl = newCluster(1+clientMachines, tel)
	cfg := herdkv.DefaultConfig()
	cfg.MaxClients = clientMachines * perMachine
	perPart := int(w.keys)/cfg.NS + 1
	cfg.Mica = herdkv.MicaConfig{IndexBuckets: buckets, BucketSlots: 8, LogBytes: 2 * perPart * (18 + w.valueSize)}
	srv, err := herdkv.NewServer(d.cl.Machine(0), cfg)
	if err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	d.servers = []*herdkv.Server{srv}
	d.serverMach = []*herdkv.Machine{d.cl.Machine(0)}
	d.setup.cluster = lap()

	lap = stopwatch()
	if err := preload(w, srv.Preload); err != nil {
		return nil, err
	}
	d.setup.preload = lap()

	lap = stopwatch()
	for m := 1; m <= clientMachines; m++ {
		for j := 0; j < perMachine; j++ {
			c, err := srv.ConnectClient(d.cl.Machine(m))
			if err != nil {
				return nil, fmt.Errorf("connect client: %w", err)
			}
			d.clients = append(d.clients, c)
		}
	}
	d.setup.connect = lap()
	return d, nil
}

// versionStamp is the [epoch 8][seq 8][flags 1] prefix a versioned
// fleet keeps in front of every stored value (FleetConfig.Versioned).
// FleetDeployment.Preload stores values as given, so preloaded values
// must carry it already, or a versioned read strips 17 bytes of payload.
const versionStamp = 17

// Fleet shape: 4 shards, 4 client machines with 12 app clients each.
const (
	fleetShards      = 4
	fleetMachines    = 4
	fleetPerMachine  = 12
	fleetLeaseTTL    = 25 * herdkv.Microsecond
	fleetIndexBucket = 1 << 14
)

func buildFleet(w *workload, tel *herdkv.Telemetry) (*deployment, error) {
	d := &deployment{}
	lap := stopwatch()
	d.cl = newCluster(fleetShards+fleetMachines, tel)
	fcfg := herdkv.DefaultFleetConfig()
	fcfg.Versioned = true
	fcfg.ReadRepair = true
	fcfg.Mux = &herdkv.MuxConfig{}
	fcfg.Herd.Durability = herdkv.DurabilityGroupCommit
	fcfg.Herd.LeaseTTL = fleetLeaseTTL
	fcfg.Herd.MaxClients = 16
	// Each shard holds ~keys*R/shards items of value + 17 B version
	// stamp + 18 B entry header; the log gets room for the run's PUTs.
	perPart := int(w.keys)*2/fleetShards/fcfg.Herd.NS + 1
	fcfg.Herd.Mica = herdkv.MicaConfig{IndexBuckets: fleetIndexBucket, BucketSlots: 8, LogBytes: 3 * perPart * (35 + w.valueSize) / 2}
	shards := make([]*herdkv.Machine, fleetShards)
	for i := range shards {
		shards[i] = d.cl.Machine(i)
	}
	fd, err := herdkv.NewFleet(shards, fcfg)
	if err != nil {
		return nil, fmt.Errorf("new fleet: %w", err)
	}
	for i := 0; i < fleetShards; i++ {
		d.servers = append(d.servers, fd.Server(i))
		d.serverMach = append(d.serverMach, shards[i])
	}
	d.setup.cluster = lap()

	lap = stopwatch()
	stamped := make([]byte, versionStamp+w.valueSize)
	binary.LittleEndian.PutUint64(stamped[8:16], 1) // epoch 0, seq 1: older than any client write
	err = preload(w, func(k herdkv.Key, v []byte) error {
		copy(stamped[versionStamp:], v)
		return fd.Preload(k, stamped)
	})
	if err != nil {
		return nil, err
	}
	d.setup.preload = lap()

	lap = stopwatch()
	for m := 0; m < fleetMachines; m++ {
		mach := d.cl.Machine(fleetShards + m)
		for j := 0; j < fleetPerMachine; j++ {
			fc, err := fd.ConnectClient(mach)
			if err != nil {
				return nil, fmt.Errorf("connect fleet client: %w", err)
			}
			t := &timedKV{KV: fc, clk: d.cl.Eng}
			nc := herdkv.NewNearCache(t, d.cl.Eng, tel, herdkv.NearCacheConfig{TTL: fleetLeaseTTL, Leases: true})
			d.fleetCli = append(d.fleetCli, fc)
			d.timers = append(d.timers, t)
			d.clients = append(d.clients, nc)
		}
		for s := 0; s < fleetShards; s++ {
			d.endpoints = append(d.endpoints, fd.Endpoint(mach, s))
		}
	}
	d.setup.connect = lap()
	return d, nil
}

// preload writes sequence 0 of every key through put.
func preload(w *workload, put func(herdkv.Key, []byte) error) error {
	buf := make([]byte, w.valueSize)
	for id := uint64(0); id < w.keys; id++ {
		fillValue(buf, id, 0)
		if err := put(keyOf(id), buf); err != nil {
			return fmt.Errorf("preload key %d: %w", id, err)
		}
	}
	return nil
}

// timedKV sits between a near cache and its fleet client and, when
// armed, records each fleet operation's virtual latency (call to
// callback): the fleet.op span.
type timedKV struct {
	herdkv.KV
	clk     herdkv.Clock
	armed   bool
	samples []int64
}

func (t *timedKV) wrap(cb func(herdkv.Result)) func(herdkv.Result) {
	if !t.armed {
		return cb
	}
	start := t.clk.Now()
	return func(r herdkv.Result) {
		t.samples = append(t.samples, int64(t.clk.Now()-start))
		cb(r)
	}
}

func (t *timedKV) Get(k herdkv.Key, cb func(herdkv.Result)) error { return t.KV.Get(k, t.wrap(cb)) }

func (t *timedKV) Put(k herdkv.Key, v []byte, cb func(herdkv.Result)) error {
	return t.KV.Put(k, v, t.wrap(cb))
}

func (t *timedKV) Delete(k herdkv.Key, cb func(herdkv.Result)) error {
	return t.KV.Delete(k, t.wrap(cb))
}
