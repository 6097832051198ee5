package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
)

func TestFleetChaosZeroFailuresAndDrains(t *testing.T) {
	out := FleetChaos(cluster.Apt(), fleetChaosSchedule(), 3).String()
	if !strings.Contains(out, "0 fleet-level failures (must be 0)") {
		t.Fatalf("fleet chaos run had fleet-level failures:\n%s", out)
	}
	if !strings.Contains(out, "0 hung (must be 0)") {
		t.Fatalf("fleet chaos run left hung ops:\n%s", out)
	}
	if !strings.Contains(out, "1 crashes, 1 restarts") {
		t.Fatalf("crash/restart not injected:\n%s", out)
	}
	if strings.Contains(out, "failover: 0 reroutes") {
		t.Fatalf("no failover happened during the outage:\n%s", out)
	}
}

func TestFleetChaosSeedChangesRun(t *testing.T) {
	a := FleetChaos(cluster.Apt(), fleetChaosSchedule(), 3).String()
	b := FleetChaos(cluster.Apt(), fleetChaosSchedule(), 4).String()
	if a == b {
		t.Fatal("different seeds produced identical fleet chaos tables")
	}
}
