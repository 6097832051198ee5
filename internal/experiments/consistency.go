package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/histcheck"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
)

// Consistency is the nemesis-driven consistency experiment behind
// BENCH_consistency: the same fleet and workload run twice under one
// generated chaos schedule — once with the legacy first-ack write path
// (a straggler replica that misses a write diverges forever) and once
// with versioned writes plus read repair and anti-entropy. Every client
// operation is recorded with histcheck and the history is checked for
// per-key linearizability after the drain.
//
// The schedule is not hand-written: a nemesis seed search runs the
// legacy arm under generated schedules until the checker finds a stale
// read, then fault.Minimize shrinks the failing schedule to its
// essential events. The repaired arm replays the same failing schedule
// and must certify linearizable with all replica sets converged.
//
// Both arms run DurabilitySync so a crashed shard restarts warm: the
// divergence under test comes from the network (first-ack swallowing a
// blacked-out straggler), not from crash data loss.
//
// Everything is virtual-time deterministic: the same (spec, seed) pair
// produces a byte-identical table and JSON under -count=2 -race.

// ConsistencyArm is one run's measurements.
type ConsistencyArm struct {
	// Mode is the write path for this arm: "first-ack" or
	// "versioned-repair".
	Mode string
	// Issued/Ok/Failed are fleet-level op outcomes. Failed ops are kept
	// in the history as indeterminate (a failed write may have landed).
	Issued uint64
	Ok     uint64
	Failed uint64
	// GoodputMops is served throughput over the whole drained run.
	GoodputMops float64 `json:"goodput_mops"`
	// HistOps/HistKeys are the checked history's size after dropping
	// failed reads.
	HistOps  int
	HistKeys int
	// Violations counts keys whose sub-history admits no linearization;
	// Linearizable is Violations == 0.
	Violations   int
	Linearizable bool
	// PartialWrites counts writes acked with a failed straggler.
	PartialWrites uint64
	// StaleReplicas counts replicas a versioned read round caught
	// behind the winner; RepairsApplied counts repair write-backs that
	// landed (both zero for the first-ack arm).
	StaleReplicas  uint64
	RepairsApplied uint64
	// AEAudited/AERepaired count keys the anti-entropy sweep visited
	// and back-filled (zero for the first-ack arm: no repair machinery).
	AEAudited  uint64
	AERepaired uint64
	// DivergentBefore/DivergentAfter count workload keys whose replicas
	// disagree after the drain, before and after a final anti-entropy
	// sweep. The sweep is a no-op on the first-ack arm — divergence is
	// permanent there.
	DivergentBefore int
	DivergentAfter  int
}

// ConsistencyResult is the exported BENCH_consistency.json payload.
type ConsistencyResult struct {
	Cluster string
	// Schedule is the failing nemesis line the reported arms ran under.
	Schedule string
	// Seed is the experiment seed; NemesisSeed is the generation seed
	// the search landed on (>= Seed), SeedsTried how many it consumed.
	Seed        int64
	NemesisSeed int64
	SeedsTried  int
	// ScheduleEvents/MinimizedEvents size the failing schedule before
	// and after fault.Minimize.
	ScheduleEvents  int
	MinimizedEvents int
	Off             ConsistencyArm
	On              ConsistencyArm
}

// Consistency experiment sizing. Keys × ops stay well under the
// histcheck per-key cap: consistencyClients*consistencyOps ops spread
// round-robin over consistencyKeys keys.
const (
	consistencyShards  = 3
	consistencyClients = 3
	consistencyKeys    = 8
	consistencyOps     = 48 // per client; divisible by consistencyKeys
	consistencyGap     = 20 * sim.Microsecond
)

// consistencyNemesis parameterizes one generated schedule: the shard
// machines are crashable, the client machines join the link-fault peer
// range so a generated blackout can sever one client from one replica —
// the divergence-seeding fault first-ack cannot see.
func consistencyNemesis(seed int64) fault.NemesisConfig {
	return fault.NemesisConfig{
		Seed:       seed,
		Until:      1200 * sim.Microsecond,
		Nodes:      consistencyShards,
		Peers:      consistencyShards + consistencyClients,
		Crashes:    1,
		Blackouts:  2,
		Partitions: 1,
		MinDown:    150 * sim.Microsecond,
		MaxDown:    400 * sim.Microsecond,
	}
}

// nemesisLine renders the config as its re-parseable script line.
func nemesisLine(cfg fault.NemesisConfig) string {
	us := func(t sim.Time) string { return fmt.Sprintf("%gus", t.Microseconds()) }
	return fmt.Sprintf(
		"nemesis seed=%d until=%s nodes=%d peers=%d crashes=%d blackouts=%d partitions=%d mindown=%s maxdown=%s",
		cfg.Seed, us(cfg.Until), cfg.Nodes, cfg.Peers,
		cfg.Crashes, cfg.Blackouts, cfg.Partitions, us(cfg.MinDown), us(cfg.MaxDown))
}

// consistencyArm runs one arm under the given schedule and checks the
// recorded history.
func consistencyArm(spec cluster.Spec, seed int64, sched *fault.Schedule, repair bool) ConsistencyArm {
	spec.Faults = sched
	cl := cluster.New(spec, consistencyShards+consistencyClients, seed)

	fcfg := fleet.DefaultConfig()
	fcfg.Herd = core.DefaultConfig()
	fcfg.Herd.NS = 2
	fcfg.Herd.MaxClients = consistencyClients
	fcfg.Herd.RetryTimeout = chaosRetryTimeout
	fcfg.Herd.Durability = core.DurabilitySync
	fcfg.Herd.Mica = mica.Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 1 << 20}
	fcfg.MigrationBatch = 32
	fcfg.MigrationInterval = 4 * sim.Microsecond
	fcfg.ReadRepair = repair // implies Versioned

	servers := make([]*cluster.Machine, consistencyShards)
	for i := range servers {
		servers[i] = cl.Machine(i)
	}
	d, err := fleet.NewDeployment(servers, fcfg)
	if err != nil {
		panic(err)
	}
	if inj := cl.Faults(); inj != nil {
		d.RegisterCrashTargets(inj)
		inj.Arm()
	}

	arm := ConsistencyArm{Mode: "first-ack"}
	if repair {
		arm.Mode = "versioned-repair"
	}
	rec := &histcheck.Recorder{}
	var nextValue uint64

	clients := make([]*fleet.Client, consistencyClients)
	for i := range clients {
		c, err := d.ConnectClient(cl.Machine(consistencyShards + i))
		if err != nil {
			panic(err)
		}
		clients[i] = c
	}
	for i, c := range clients {
		i, c := i, c
		rnd := sim.NewRand(seed + int64(i)*7919)
		issued := 0
		var issue func()
		issue = func() {
			if issued >= consistencyOps {
				return
			}
			// Round-robin key choice: every key collects exactly
			// clients*ops/keys operations, comfortably under the
			// histcheck 64-op cap even counting failed writes.
			key := kv.FromUint64(1 + uint64(i*consistencyOps+issued)%consistencyKeys)
			issued++
			arm.Issued++
			next := func() { cl.Eng.After(consistencyGap, issue) }
			if rnd.Intn(2) == 0 {
				id := rec.BeginRead(key, cl.Eng.Now())
				c.Get(key, func(r kv.Result) {
					if r.Err != nil {
						rec.Fail(id)
					} else {
						arm.Ok++
						var v uint64
						if r.Status == kv.StatusHit && len(r.Value) >= 8 {
							v = binary.LittleEndian.Uint64(r.Value)
						}
						rec.EndRead(id, v, cl.Eng.Now())
					}
					next()
				})
			} else {
				nextValue++
				v := nextValue
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, v)
				id := rec.BeginWrite(key, v, cl.Eng.Now())
				c.Put(key, buf, func(r kv.Result) {
					if r.Err != nil {
						rec.Fail(id)
					} else {
						arm.Ok++
						rec.EndWrite(id, cl.Eng.Now())
					}
					next()
				})
			}
		}
		cl.Eng.At(sim.Time(i)*sim.Microsecond, issue)
	}

	cl.Eng.Run() // closed loop drains itself: fixed op budget per client

	for _, c := range clients {
		arm.Failed += c.Failed()
		arm.PartialWrites += c.PartialWrites()
		arm.StaleReplicas += c.StaleObserved()
		arm.RepairsApplied += c.RepairsApplied()
	}

	chk, err := histcheck.Check(rec, nil)
	if err != nil {
		panic(err) // harness sizing bug: a key exceeded the op cap
	}
	arm.HistOps = chk.Ops
	arm.HistKeys = chk.Keys
	arm.Violations = len(chk.Violations)
	arm.Linearizable = chk.Ok

	// Replica convergence audit: a key is divergent when two replicas
	// disagree on its stored bytes (value or presence). The repaired arm
	// must converge after one full anti-entropy sweep; the first-ack arm
	// has no repair machinery, so its divergence is permanent.
	divergent := func() int {
		n := 0
		for k := uint64(1); k <= consistencyKeys; k++ {
			key := kv.FromUint64(k)
			part := mica.Partition(key, fcfg.Herd.NS)
			var ref []byte
			refOK, first, div := false, true, false
			for _, id := range d.Replicas(key) {
				v, ok := d.Server(id).Partition(part).Get(key)
				if first {
					ref, refOK, first = v, ok, false
					continue
				}
				if ok != refOK || !bytes.Equal(v, ref) {
					div = true
				}
			}
			if div {
				n++
			}
		}
		return n
	}
	arm.DivergentBefore = divergent()
	d.AntiEntropySweep()
	cl.Eng.Run()
	arm.DivergentAfter = divergent()
	arm.AEAudited, arm.AERepaired = d.AntiEntropyStats()
	arm.GoodputMops = stats.Throughput(arm.Ok, cl.Eng.Now())
	return arm
}

// Consistency searches nemesis seeds for a schedule under which the
// first-ack arm serves a provably stale read, minimizes it, replays
// both arms under the failing schedule, and renders the comparison.
func Consistency(spec cluster.Spec, seed int64) (*Table, ConsistencyResult) {
	const maxSeeds = 24
	res := ConsistencyResult{Cluster: spec.Name, Seed: seed}

	var failing *fault.Schedule
	var cfg fault.NemesisConfig
	for k := 0; k < maxSeeds; k++ {
		cfg = consistencyNemesis(seed + int64(k))
		s := cfg.Generate()
		res.SeedsTried = k + 1
		res.NemesisSeed = cfg.Seed
		if consistencyArm(spec, seed, s, false).Violations > 0 {
			failing = s
			break
		}
	}
	if failing == nil {
		// No generated schedule broke first-ack within the search
		// budget: report the last arm pair and let the gate fail loudly.
		failing = cfg.Generate()
	}
	res.Schedule = nemesisLine(cfg)
	res.ScheduleEvents = len(failing.Events)
	res.MinimizedEvents = len(fault.Minimize(failing, func(s *fault.Schedule) bool {
		return consistencyArm(spec, seed, s, false).Violations > 0
	}).Events)
	res.Off = consistencyArm(spec, seed, failing, false)
	res.On = consistencyArm(spec, seed, failing, true)

	t := &Table{
		ID: "consistency",
		Title: fmt.Sprintf(
			"Nemesis consistency: first-ack divergence vs versioned read repair — %s", spec.Name),
		Columns: []string{"mode", "issued", "ok", "failed", "hist_ops", "keys",
			"violations", "partial", "stale", "repairs", "ae_fixed", "div_before", "div_after"},
	}
	for _, a := range []ConsistencyArm{res.Off, res.On} {
		t.AddRow(a.Mode,
			fmt.Sprintf("%d", a.Issued), fmt.Sprintf("%d", a.Ok), fmt.Sprintf("%d", a.Failed),
			fmt.Sprintf("%d", a.HistOps), fmt.Sprintf("%d", a.HistKeys),
			fmt.Sprintf("%d", a.Violations), fmt.Sprintf("%d", a.PartialWrites),
			fmt.Sprintf("%d", a.StaleReplicas), fmt.Sprintf("%d", a.RepairsApplied),
			fmt.Sprintf("%d", a.AERepaired),
			fmt.Sprintf("%d", a.DivergentBefore), fmt.Sprintf("%d", a.DivergentAfter),
		)
	}
	t.AddNote("gate: first-ack arm non-linearizable (violations>0), versioned arm linearizable with replicas converged (div_after=0), byte-identical replay across -count=2")
	t.AddNote("nemesis seed %d found in %d tries; failing schedule %d events, %d after minimization",
		res.NemesisSeed, res.SeedsTried, res.ScheduleEvents, res.MinimizedEvents)
	t.AddNote("schedule: %s", res.Schedule)
	return t, res
}

// ConsistencyScenario is the packaged run used by herdbench and the CI
// gate.
func ConsistencyScenario(spec cluster.Spec) (*Table, ConsistencyResult) {
	return Consistency(spec, 1)
}
