package experiments

import (
	"strings"
	"testing"
)

// fleetBenchGate is the fleet-bench acceptance gate (run by
// TestScenarios under short windows: the assertion is about relative
// throughput, which stabilizes quickly).
func fleetBenchGate(t *testing.T, tbl *Table, res FleetBenchResult) {
	if res.SingleMops <= 0 || res.ShardedMops <= 0 || res.FleetMops <= 0 {
		t.Fatalf("zero throughput somewhere: %+v", res)
	}
	// The acceptance bar: a 4-shard R=2 fleet must deliver at least 3x
	// one server on the read-intensive mix.
	if res.FleetSpeedup < 3 {
		t.Fatalf("fleet speedup %.2fx < 3x over single server: %+v", res.FleetSpeedup, res)
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fleet_mops"`, `"fleet_speedup_vs_single"`, `"sharded_mops"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, buf.String())
		}
	}
	if tbl.String() == "" {
		t.Fatal("empty bench table")
	}
}
