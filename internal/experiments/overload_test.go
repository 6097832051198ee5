package experiments

import (
	"strings"
	"testing"
)

// overloadGate is the acceptance gate for the overload controller:
// with admission control + busy pushback + AIMD, goodput stays within
// 90% of its peak at every past-saturation load level (including 2x
// saturation and the deepest point of the sweep), while the uncontrolled
// baseline's goodput collapses under retry-storm duplication somewhere
// past saturation.
func overloadGate(t *testing.T, tbl *Table, res OverloadResult) {
	if tbl.String() == "" {
		t.Fatal("empty overload table")
	}
	if len(res.Baseline) != len(overloadChains) || len(res.Controlled) != len(overloadChains) {
		t.Fatalf("sweep has %d/%d points, want %d",
			len(res.Baseline), len(res.Controlled), len(overloadChains))
	}

	peak := func(pts []OverloadPoint) float64 {
		best := 0.0
		for _, p := range pts {
			if p.GoodputMops > best {
				best = p.GoodputMops
			}
		}
		return best
	}
	basePeak, ctlPeak := peak(res.Baseline), peak(res.Controlled)
	if basePeak <= 0 || ctlPeak <= 0 {
		t.Fatalf("zero peak goodput: base %.2f ctl %.2f", basePeak, ctlPeak)
	}

	// One chain sustains ~1/RTT ops, so one ~6.45 Mops process saturates
	// around 13 chains; every sweep point from 32 chains on is at least
	// 2x saturation offered load.
	const pastSaturation = 32
	baseWorst := basePeak
	var shed, busy, ctlFailed, baseRetries uint64
	for i, b := range res.Baseline {
		c := res.Controlled[i]
		shed += c.Shed
		busy += c.BusyRx
		ctlFailed += c.Failed
		if b.Chains < pastSaturation {
			continue
		}
		baseRetries += b.Retries
		if b.GoodputMops < baseWorst {
			baseWorst = b.GoodputMops
		}
		// The gate: the controller holds >= 90% of peak goodput at 2x
		// saturation and every deeper load level.
		if c.GoodputMops < 0.9*ctlPeak {
			t.Errorf("controlled goodput %.2f Mops at %d chains < 90%% of %.2f peak",
				c.GoodputMops, c.Chains, ctlPeak)
		}
		if c.GoodputMops < 0.9*basePeak {
			t.Errorf("controlled goodput %.2f Mops at %d chains < 90%% of baseline peak %.2f",
				c.GoodputMops, c.Chains, basePeak)
		}
	}
	// The baseline must collapse somewhere past saturation: queueing
	// delay crosses the retry timeout and service capacity drains into
	// duplicated requests (observed worst point ~50% of peak).
	if baseWorst > 0.7*basePeak {
		t.Errorf("baseline never collapsed: worst %.2f Mops vs %.2f peak", baseWorst, basePeak)
	}
	if baseRetries == 0 {
		t.Error("baseline past saturation never retried — no storm to protect against")
	}
	if shed == 0 || busy == 0 {
		t.Errorf("controller never engaged: shed %d busy_rx %d", shed, busy)
	}
	if ctlFailed != 0 {
		t.Errorf("controlled runs terminally failed %d ops; pushback must not fail work", ctlFailed)
	}

	var buf strings.Builder
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"chains"`, `"goodput_mops"`, `"p99_us"`, `"shed"`, `"busy_rx"`, `"retries"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, buf.String())
		}
	}
}
