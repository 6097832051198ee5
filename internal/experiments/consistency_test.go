package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// consistencyGate is the CI consistency gate: the nemesis search
// must find a schedule under which the first-ack arm serves a provably
// stale read, the minimizer must shrink it, and the versioned+repair
// arm must certify linearizable under the same schedule with every
// replica set converged after the anti-entropy sweep.
func consistencyGate(t *testing.T, tab *Table, res ConsistencyResult) {
	out := tab.String()
	if res.Off.Violations == 0 || res.Off.Linearizable {
		t.Fatalf("nemesis search found no stale read in the first-ack arm (%d seeds tried):\n%s",
			res.SeedsTried, out)
	}
	if res.Off.PartialWrites == 0 {
		t.Fatalf("first-ack arm saw no partial writes — the schedule never split a fan-out:\n%s", out)
	}
	if !res.On.Linearizable || res.On.Violations != 0 {
		t.Fatalf("versioned+repair arm not linearizable (%d violations) under the same schedule:\n%s",
			res.On.Violations, out)
	}
	if res.On.DivergentAfter != 0 {
		t.Fatalf("versioned+repair arm left %d divergent keys after the anti-entropy sweep:\n%s",
			res.On.DivergentAfter, out)
	}
	if res.MinimizedEvents == 0 || res.MinimizedEvents > res.ScheduleEvents {
		t.Fatalf("minimizer produced %d events from %d:\n%s",
			res.MinimizedEvents, res.ScheduleEvents, out)
	}
	for _, a := range []ConsistencyArm{res.Off, res.On} {
		if a.Issued == 0 || a.Ok == 0 {
			t.Fatalf("%s arm issued %d / ok %d — the workload did not run:\n%s", a.Mode, a.Issued, a.Ok, out)
		}
		if a.HistOps == 0 || a.HistKeys == 0 {
			t.Fatalf("%s arm recorded an empty history:\n%s", a.Mode, out)
		}
	}
}

// TestConsistencyGate applies consistencyGate to one run of the
// consistency scenario.
func TestConsistencyGate(t *testing.T) {
	shortWindows(t)
	tab, res := ConsistencyScenario(cluster.Apt())
	consistencyGate(t, tab, res)
}

// TestConsistencyDeterminism pins replay of the consistency scenario:
// seed search, minimization and both arms, within the run and across
// -count entries.
func TestConsistencyDeterminism(t *testing.T) {
	shortWindows(t)
	replayRow(t, registeredRow(t, "consistency"))
}
