package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/fault"
)

// testChaosSchedule is a compressed version of the packaged scenario:
// background loss with a crash-restart window in the middle.
func testChaosSchedule() *fault.Schedule {
	sched, err := fault.ParseSchedule(`
		loss  from=0 until=8ms rate=0.05
		crash node=0 at=2ms restart=4ms
	`)
	if err != nil {
		panic(err)
	}
	return sched
}

func TestChaosRunIsDeterministicAndDrains(t *testing.T) {
	run := func() string {
		return Chaos(cluster.Apt(), testChaosSchedule(), 3).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different chaos tables:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "0 hung (must be 0)") {
		t.Fatalf("chaos run left hung ops:\n%s", a)
	}
	if !strings.Contains(a, "1 crashes, 1 restarts") {
		t.Fatalf("crash/restart not injected:\n%s", a)
	}
	if !strings.Contains(a, "reconnect handshakes") || strings.Contains(a, "0 reconnect handshakes") {
		t.Fatalf("no client reconnected across the restart:\n%s", a)
	}
}

func TestChaosSeedChangesRun(t *testing.T) {
	a := Chaos(cluster.Apt(), testChaosSchedule(), 3).String()
	b := Chaos(cluster.Apt(), testChaosSchedule(), 4).String()
	if a == b {
		t.Fatal("different seeds produced identical chaos tables")
	}
}
