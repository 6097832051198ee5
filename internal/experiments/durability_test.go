package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// durabilityGate is the CI durability gate: zero data loss in both
// arms, a strictly faster warm rejoin, and proof the flushcrash left a
// torn tail that replay truncated.
func durabilityGate(t *testing.T, tab *Table, res DurabilityResult) {
	out := tab.String()
	for _, a := range []DurabilityArm{res.Cold, res.Warm} {
		if a.LostKeys != 0 {
			t.Fatalf("%s arm lost %d keys (must be 0):\n%s", a.Mode, a.LostKeys, out)
		}
		if a.ShardMissing != 0 {
			t.Fatalf("%s arm: %d keys missing from the rejoined shard:\n%s", a.Mode, a.ShardMissing, out)
		}
		if a.Failed != 0 || a.Hung != 0 {
			t.Fatalf("%s arm: %d failed, %d hung (must be 0; R=2 absorbs the outage):\n%s",
				a.Mode, a.Failed, a.Hung, out)
		}
		if a.Issued == 0 || a.Ok == 0 {
			t.Fatalf("%s arm issued %d / ok %d — the workload did not run:\n%s", a.Mode, a.Issued, a.Ok, out)
		}
	}
	if res.Warm.Replayed+res.Warm.SnapshotRecords == 0 {
		t.Fatalf("warm arm replayed nothing — the WAL was not exercised:\n%s", out)
	}
	if res.Warm.TornBytes == 0 {
		t.Fatalf("flushcrash left no torn tail — CrashTorn not reaching the log:\n%s", out)
	}
	if res.Cold.TornBytes != 0 || res.Cold.Replayed != 0 {
		t.Fatalf("cold arm has WAL activity (torn=%d replayed=%d):\n%s",
			res.Cold.TornBytes, res.Cold.Replayed, out)
	}
	if res.Warm.RecoveryUS >= res.Cold.RecoveryUS {
		t.Fatalf("warm rejoin (%v us) not strictly faster than cold re-replication (%v us):\n%s",
			res.Warm.RecoveryUS, res.Cold.RecoveryUS, out)
	}
	if res.Warm.CatchupKeys >= res.Cold.CatchupKeys {
		t.Fatalf("warm delta (%d keys) not smaller than cold full recopy (%d keys):\n%s",
			res.Warm.CatchupKeys, res.Cold.CatchupKeys, out)
	}
	if res.Warm.WALSnapshots == 0 {
		t.Fatalf("warm arm never snapshot-compacted — SnapshotEvery not exercised:\n%s", out)
	}
}

// TestDurabilityGate applies durabilityGate to one run of the
// durability scenario.
func TestDurabilityGate(t *testing.T) {
	shortWindows(t)
	tab, res := DurabilityScenario(cluster.Apt())
	durabilityGate(t, tab, res)
}

// TestDurabilityReplayStable pins replay of the durability scenario:
// table and result, within the run and across -count entries.
func TestDurabilityReplayStable(t *testing.T) {
	shortWindows(t)
	replayRow(t, registeredRow(t, "durability"))
}
