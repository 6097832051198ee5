package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestCPUUseShape(t *testing.T) {
	shortWindows(t)
	tbl := CPUUse(cluster.Apt())
	type rowv struct{ mops, server, client, total float64 }
	vals := map[string]rowv{}
	for _, r := range tbl.Rows {
		vals[r[0]] = rowv{fval(t, r[1]), fval(t, r[2]), fval(t, r[3]), fval(t, r[4])}
	}
	herd, pilaf, farmVar := vals[SysHERD], vals[SysPilaf], vals[SysFaRMVar]

	// HERD's server CPU cost is the design's acknowledged price.
	if herd.server < 5*pilaf.server {
		t.Errorf("HERD server CPU (%.0f) should far exceed the emulated systems' (%.0f)",
			herd.server, pilaf.server)
	}
	// But the READ-based systems burn client CPU on multi-READ GETs,
	// which "reduces the extent of the difference" (Section 5.6): their
	// per-op client cost exceeds HERD's.
	if pilaf.client <= herd.client || farmVar.client <= herd.client {
		t.Errorf("multi-READ clients should cost more CPU/op: pilaf=%.0f farmVar=%.0f herd=%.0f",
			pilaf.client, farmVar.client, herd.client)
	}
	// Totals are comparable — HERD is not the CPU hog the server column
	// alone suggests.
	if herd.total > 1.5*pilaf.total {
		t.Errorf("HERD total CPU (%.0f) should be within 1.5x of Pilaf's (%.0f)",
			herd.total, pilaf.total)
	}
	// And HERD buys far more throughput with it.
	if herd.mops < 2*pilaf.mops {
		t.Errorf("HERD (%.1f Mops) should be >2x Pilaf (%.1f)", herd.mops, pilaf.mops)
	}
}
