package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestAblationArchitectureCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("client-scaling sweep is slow")
	}
	shortWindows(t)
	tbl := AblationArchitecture(cluster.Apt())
	// At moderate scale the hybrid wins by roughly the paper's 4-5 Mops.
	r50 := row(t, tbl, "50")
	hybrid, sendSend := fval(t, r50[1]), fval(t, r50[2])
	if gap := hybrid - sendSend; gap < 2 || gap > 9 {
		t.Errorf("SEND/SEND penalty at 50 clients = %.1f Mops, want ~4-5", gap)
	}
	// At 500 clients the hybrid has declined while SEND/SEND holds, so
	// SEND/SEND wins (Section 5.5's prediction).
	r500 := row(t, tbl, "500")
	if h, s := fval(t, r500[1]), fval(t, r500[2]); s <= h {
		t.Errorf("at 500 clients SEND/SEND (%.1f) should beat the hybrid (%.1f)", s, h)
	}
	// SEND/SEND is flat across the sweep.
	s50, s500 := fval(t, r50[2]), fval(t, r500[2])
	if s500 < s50*0.9 {
		t.Errorf("SEND/SEND not flat: %.1f at 50 vs %.1f at 500", s50, s500)
	}
	// DC: flat like SEND/SEND but near the hybrid's peak (it keeps WRITE
	// semantics) — the paper's Connect-IB expectation.
	d50, d500 := fval(t, r50[3]), fval(t, r500[3])
	if d500 < d50*0.9 {
		t.Errorf("DC not flat: %.1f at 50 vs %.1f at 500", d50, d500)
	}
	if d50 <= s50 {
		t.Errorf("DC (%.1f) should beat SEND/SEND (%.1f) — WRITEs beat SENDs inbound", d50, s50)
	}
	if d50 < hybrid*0.9 {
		t.Errorf("DC (%.1f) should be close to the hybrid's peak (%.1f)", d50, hybrid)
	}
	if d500 <= fval(t, r500[1]) {
		t.Errorf("at 500 clients DC (%.1f) should beat the UC hybrid (%.1f)", d500, fval(t, r500[1]))
	}
}

func TestAblationInline(t *testing.T) {
	shortWindows(t)
	tbl := AblationInlineCutoff(cluster.Apt())
	// Never inlining cripples small-value throughput.
	none := fval(t, row(t, tbl, "1")[1])
	def := fval(t, row(t, tbl, "144")[1])
	if def < 2*none {
		t.Errorf("inlining should at least double SV=32 throughput: %.1f vs %.1f", def, none)
	}
}

func TestAblationWindow(t *testing.T) {
	shortWindows(t)
	tbl := AblationWindow(cluster.Apt())
	// Throughput saturates by window 4; latency keeps growing.
	w1 := fval(t, row(t, tbl, "1")[1])
	w4 := fval(t, row(t, tbl, "4")[1])
	w16 := fval(t, row(t, tbl, "16")[1])
	if w4 < w1 {
		t.Errorf("deeper window should not lower throughput: w1=%.1f w4=%.1f", w1, w4)
	}
	if w16 < w4*0.9 {
		t.Errorf("w16 (%.1f) should hold w4's throughput (%.1f)", w16, w4)
	}
	l4 := fval(t, row(t, tbl, "4")[2])
	l16 := fval(t, row(t, tbl, "16")[2])
	if l16 < 2*l4 {
		t.Errorf("latency should grow with window: w4=%.1f us, w16=%.1f us", l4, l16)
	}
}

func TestAblationPrefetch(t *testing.T) {
	shortWindows(t)
	tbl := AblationPrefetch(cluster.Apt())
	for _, cores := range []string{"2", "4"} {
		r := row(t, tbl, cores)
		if np, pf := fval(t, r[1]), fval(t, r[2]); pf < 1.5*np {
			t.Errorf("cores=%s: prefetch (%.1f) should be >1.5x no-prefetch (%.1f)", cores, pf, np)
		}
	}
}
