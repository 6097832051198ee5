package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
)

func TestSymmetricStudyShape(t *testing.T) {
	shortWindows(t)
	tbl := SymmetricStudy(cluster.Apt())
	farm4 := fval(t, row(t, tbl, "4")[1])
	farm16 := fval(t, row(t, tbl, "16")[1])
	herd4 := fval(t, row(t, tbl, "4")[3])
	herd16 := fval(t, row(t, tbl, "16")[3])

	// Symmetric FaRM's aggregate grows with machines; HERD saturates at
	// its single server.
	if farm16 < farm4*2 {
		t.Errorf("symmetric FaRM should scale: %.1f at 4 vs %.1f at 16", farm4, farm16)
	}
	if herd16 > 32 {
		t.Errorf("HERD should be server-bound (~27 Mops), got %.1f", herd16)
	}
	if herd4 <= farm4 {
		t.Errorf("at small clusters HERD (%.1f) should beat symmetric FaRM (%.1f)", herd4, farm4)
	}
	if farm16 <= herd16 {
		t.Errorf("at 16 machines symmetric FaRM (%.1f) should overtake one HERD server (%.1f)",
			farm16, herd16)
	}
	// Section 2.3's CPU point: the symmetric READ-based design "uses
	// less CPU" on the serving side.
	farmCPU := cpuPct(t, row(t, tbl, "16")[2])
	herdCPU := cpuPct(t, row(t, tbl, "16")[4])
	if farmCPU >= herdCPU/4 {
		t.Errorf("symmetric FaRM server CPU (%.0f%%) should be far below HERD's (%.0f%%)",
			farmCPU, herdCPU)
	}
}

func cpuPct(t *testing.T, cell string) float64 {
	t.Helper()
	return fval(t, strings.TrimSuffix(cell, "%"))
}
