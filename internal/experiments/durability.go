package experiments

import (
	"bytes"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/workload"
)

// Durability is the crash-recovery experiment behind BENCH_durability:
// the same fleet, workload, and flushcrash schedule run twice — once
// with the write-ahead log off (a crashed shard restarts cold and the
// fleet re-replicates its whole replica set) and once with group-commit
// durability (the shard replays its own snapshot + log tail and pulls
// only the outage delta). The arms are compared on recovery time and
// audited for data loss after the drain.
//
// The schedule uses flushcrash, not crash: the power loss lands
// mid-group-commit, so the durable arm must also prove it truncates
// the torn log tail instead of replaying a damaged record.
//
// Everything is virtual-time deterministic: the same (spec, seed) pair
// produces a byte-identical table and JSON under -count=2 -race.

// DurabilityArm is one run's measurements.
type DurabilityArm struct {
	// Mode is the durability knob for this arm: "off" or "group-commit".
	Mode string
	// Issued/Ok/Failed/Hung are fleet-level op outcomes; Failed and
	// Hung must be zero (R=2 absorbs the outage either way).
	Issued uint64
	Ok     uint64
	Failed uint64
	Hung   uint64
	// LostKeys counts keys no live replica serves with the expected
	// value after the drain — the zero-data-loss gate.
	LostKeys int
	// ShardMissing counts keys the restarted shard should replicate but
	// does not hold after recovery + catch-up.
	ShardMissing int
	// RecoveryUS is the shard's total recovery time in microseconds:
	// log replay outage plus fleet catch-up.
	RecoveryUS float64
	// ReplayUS and CatchupUS split RecoveryUS into the shard's own
	// log-replay outage and the fleet-side delta/full catch-up.
	ReplayUS  float64
	CatchupUS float64
	// Replayed and SnapshotRecords count what the shard's own log
	// replay applied (zero for the cold arm).
	Replayed        int
	SnapshotRecords int
	// TornBytes is how much torn log tail the replay truncated (the
	// flushcrash signature; zero for the cold arm).
	TornBytes int
	// CatchupKeys is how many keys the fleet copied to the rejoined
	// shard: the full replica set cold, the outage delta warm.
	CatchupKeys int
	// WALAppends/WALFlushes/WALSnapshots are the shard's log activity
	// over the run (zero for the cold arm).
	WALAppends   uint64
	WALFlushes   uint64
	WALSnapshots uint64
}

// DurabilityResult is the exported BENCH_durability.json payload.
type DurabilityResult struct {
	Cluster  string
	Schedule string
	Seed     int64
	Cold     DurabilityArm
	Warm     DurabilityArm
}

// durabilitySchedule crashes shard 0 mid-group-commit at 2 ms and
// restarts it at 3 ms. Crash-only (no packet loss) for the same reason
// as fleetChaosSchedule: the zero-failures invariant.
func durabilitySchedule() *fault.Schedule {
	sched, err := fault.ParseSchedule(`
		flushcrash node=0 at=2ms restart=3ms
	`)
	if err != nil {
		panic(err)
	}
	return sched
}

// durabilityArm runs one arm: the fleet-chaos deployment with the given
// durability mode under the flushcrash schedule.
func durabilityArm(spec cluster.Spec, seed int64, mode core.Durability) DurabilityArm {
	const (
		nShards    = 4
		nClients   = 6
		perMachine = 3
		keys       = 4096
		valueSize  = 32
		runFor     = 8 * sim.Millisecond
	)
	spec.Faults = durabilitySchedule()
	machines := nShards + (nClients+perMachine-1)/perMachine
	cl := cluster.New(spec, machines, seed)

	fcfg := fleet.DefaultConfig()
	fcfg.Herd = core.DefaultConfig()
	fcfg.Herd.NS = 2
	fcfg.Herd.MaxClients = nClients
	fcfg.Herd.RetryTimeout = chaosRetryTimeout
	fcfg.Herd.Durability = mode
	// A low snapshot threshold so the warm arm exercises snapshot
	// compaction (and snapshot + tail replay) within the 8 ms window.
	fcfg.Herd.WAL.SnapshotEvery = 64 << 10
	// Re-replication pacing: each batch models an RPC round-trip of
	// remote reads, so catch-up throughput is bounded by the network,
	// not by the survivor's memory bandwidth. Both arms share it — warm
	// wins by moving less data over the wire, not by a pacing thumb on
	// the scale.
	fcfg.MigrationBatch = 32
	fcfg.MigrationInterval = 4 * sim.Microsecond
	fcfg.Herd.Mica = mica.Config{
		IndexBuckets: keys / 4,
		BucketSlots:  8,
		// Sized so the circular log never wraps during the run: cache
		// eviction would be indistinguishable from crash data loss in
		// the post-drain audit, and this experiment gates on the latter.
		LogBytes: 2 << 20,
	}
	servers := make([]*cluster.Machine, nShards)
	for i := range servers {
		servers[i] = cl.Machine(i)
	}
	d, err := fleet.NewDeployment(servers, fcfg)
	if err != nil {
		panic(err)
	}
	for k := uint64(0); k < keys; k++ {
		key := kv.FromUint64(k)
		if err := d.Preload(key, workload.ExpectedValue(key, valueSize)); err != nil {
			panic(err)
		}
	}
	if inj := cl.Faults(); inj != nil {
		d.RegisterCrashTargets(inj)
		inj.Arm()
	}

	clients := make([]*fleet.Client, nClients)
	for i := range clients {
		c, err := d.ConnectClient(cl.Machine(nShards + i/perMachine))
		if err != nil {
			panic(err)
		}
		clients[i] = c
	}

	arm := DurabilityArm{Mode: "off"}
	if mode != core.DurabilityOff {
		arm.Mode = "group-commit"
	}
	stopped := false
	for i, c := range clients {
		c := c
		gen := workload.NewGenerator(workload.Config{
			GetFraction: 0.50, // heavy writes: the log must keep up under fire
			Keys:        keys,
			ValueSize:   valueSize,
			Seed:        seed + int64(i)*1000,
		})
		issue := func(done func()) {
			if stopped {
				return
			}
			op := gen.Next()
			arm.Issued++
			fin := func(r kv.Result) {
				if r.Err == nil {
					arm.Ok++
				}
				done()
			}
			if op.IsGet {
				c.Get(op.Key, fin)
			} else {
				c.Put(op.Key, workload.ExpectedValue(op.Key, valueSize), fin)
			}
		}
		stagger := sim.Time(i) * sim.Microsecond
		cl.Eng.At(stagger, func() { pump(fcfg.Herd.Window, issue) })
	}

	cl.Eng.RunFor(runFor)
	stopped = true
	cl.Eng.Run() // drain in-flight ops AND the recovery catch-up

	for _, c := range clients {
		arm.Failed += c.Failed()
		arm.Hung += uint64(c.Inflight())
	}

	rec := d.LastRecovery()
	arm.RecoveryUS = rec.Duration.Microseconds()
	arm.ReplayUS = rec.ReplayDuration.Microseconds()
	arm.CatchupUS = rec.CatchupDuration.Microseconds()
	arm.Replayed = rec.Replayed
	arm.SnapshotRecords = rec.SnapshotRecords
	arm.TornBytes = rec.TornBytes
	arm.CatchupKeys = rec.CatchupKeys
	if w := d.Server(0).WAL(); w != nil {
		arm.WALAppends = w.Appends()
		arm.WALFlushes = w.Flushes()
		arm.WALSnapshots = w.Snapshots()
	}

	// Post-drain audit. Every client write used the key's fixed
	// expected value, so data loss is directly checkable: a key is lost
	// when no live replica serves that value, and the restarted shard
	// (shard 0, the flushcrash target) must hold its full replica share
	// again.
	for k := uint64(0); k < keys; k++ {
		key := kv.FromUint64(k)
		want := workload.ExpectedValue(key, valueSize)
		part := mica.Partition(key, fcfg.Herd.NS)
		found, onZero := false, false
		for _, id := range d.Replicas(key) {
			if v, ok := d.Server(id).Partition(part).Get(key); ok && bytes.Equal(v, want) {
				found = true
				if id == 0 {
					onZero = true
				}
			}
		}
		if !found {
			arm.LostKeys++
		}
		for _, id := range d.Replicas(key) {
			if id == 0 && !onZero {
				arm.ShardMissing++
			}
		}
	}
	return arm
}

// Durability runs both arms and renders the comparison.
func Durability(spec cluster.Spec, seed int64) (*Table, DurabilityResult) {
	res := DurabilityResult{
		Cluster:  spec.Name,
		Schedule: "flushcrash node=0 at=2ms restart=3ms",
		Seed:     seed,
		Cold:     durabilityArm(spec, seed, core.DurabilityOff),
		Warm:     durabilityArm(spec, seed, core.DurabilityGroupCommit),
	}

	t := &Table{
		ID:    "durability",
		Title: fmt.Sprintf("Crash recovery: cold re-replication vs WAL warm rejoin — %s", spec.Name),
		Columns: []string{"mode", "recovery_us", "replay_us", "catchup_us",
			"replayed", "snap_recs", "torn_B", "catchup_keys", "lost", "failed"},
	}
	for _, a := range []DurabilityArm{res.Cold, res.Warm} {
		t.AddRow(a.Mode,
			cell(a.RecoveryUS), cell(a.ReplayUS), cell(a.CatchupUS),
			fmt.Sprintf("%d", a.Replayed), fmt.Sprintf("%d", a.SnapshotRecords),
			fmt.Sprintf("%d", a.TornBytes), fmt.Sprintf("%d", a.CatchupKeys),
			fmt.Sprintf("%d", a.LostKeys), fmt.Sprintf("%d", a.Failed),
		)
	}
	t.AddNote("gate: lost=0 both arms, warm recovery strictly faster than cold, torn tail truncated (torn_B>0 warm), replay byte-identical across -count=2")
	t.AddNote("warm shard 0 WAL: %d appends, %d group commits, %d snapshot compactions",
		res.Warm.WALAppends, res.Warm.WALFlushes, res.Warm.WALSnapshots)
	t.AddNote("ops: cold %d issued / %d ok, warm %d issued / %d ok (failed must be 0: R=2 absorbs the outage)",
		res.Cold.Issued, res.Cold.Ok, res.Warm.Issued, res.Warm.Ok)
	return t, res
}

// DurabilityScenario is the packaged run used by herdbench and the CI
// gate.
func DurabilityScenario(spec cluster.Spec) (*Table, DurabilityResult) {
	return Durability(spec, 1)
}
