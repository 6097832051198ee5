package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
)

// clientsSweepGate is the acceptance gate for the endpoint tier:
// the direct-connection arm must reproduce Figure 12's cliff (>= 30%
// goodput decline from its peak by the deepest sweep point), and the
// muxed arm must hold >= 95% of its peak at every client count.
func clientsSweepGate(t *testing.T, tbl *Table, res ClientsResult) {
	if tbl.String() == "" {
		t.Fatal("empty clients table")
	}
	if len(res.NoMux) != len(clientsSweep) || len(res.Mux) != len(clientsSweep) {
		t.Fatalf("sweep has %d/%d points, want %d", len(res.NoMux), len(res.Mux), len(clientsSweep))
	}

	peak := func(pts []ClientsPoint) float64 {
		best := 0.0
		for _, p := range pts {
			if p.GoodputMops > best {
				best = p.GoodputMops
			}
		}
		return best
	}
	directPeak, muxPeak := peak(res.NoMux), peak(res.Mux)
	if directPeak <= 0 || muxPeak <= 0 {
		t.Fatalf("zero peak goodput: direct %.2f mux %.2f", directPeak, muxPeak)
	}

	// The cliff: the direct arm declines at least 30% from peak by 10k
	// clients (the model's decline is far steeper — the receive context
	// cache holds 280 entries against 10k connected QPs).
	deep := res.NoMux[len(res.NoMux)-1]
	if deep.GoodputMops > 0.7*directPeak {
		t.Errorf("no cliff: direct goodput %.2f Mops at %d clients vs %.2f peak (want >= 30%% decline)",
			deep.GoodputMops, deep.Clients, directPeak)
	}
	if deep.RecvCtxEvicts == 0 {
		t.Error("direct arm at 10k clients saw no recv-context evictions — cache never thrashed")
	}
	if deep.ServerQPs != deep.Clients {
		t.Errorf("direct arm holds %d server QPs for %d clients", deep.ServerQPs, deep.Clients)
	}

	for i, m := range res.Mux {
		// The engineered fix: muxed goodput stays within 5% of its peak
		// at every sweep point, because the server-side QP count is
		// pinned inside the context cache.
		if m.GoodputMops < 0.95*muxPeak {
			t.Errorf("muxed goodput %.2f Mops at %d clients < 95%% of %.2f peak",
				m.GoodputMops, m.Clients, muxPeak)
		}
		if want := clientsHosts * clientsMuxQPs; m.ServerQPs != want {
			t.Errorf("muxed arm holds %d server QPs at %d clients, want %d",
				m.ServerQPs, m.Clients, want)
		}
		if m.RecvCtxHitRate < 0.9 {
			t.Errorf("muxed recv ctx hit rate %.3f at %d clients < 0.9 — pool does not fit on chip",
				m.RecvCtxHitRate, m.Clients)
		}
		// Direct-arm hit rate must collapse past cache capacity.
		if d := res.NoMux[i]; d.Clients > 2*cluster.Apt().NIC.RecvCtxCap && d.RecvCtxHitRate > 0.5 {
			t.Errorf("direct recv ctx hit rate %.3f at %d clients — no thrash past capacity",
				d.RecvCtxHitRate, d.Clients)
		}
	}

	var buf strings.Builder
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"clients"`, `"server_qps"`, `"goodput_mops"`,
		`"recv_ctx_hit_rate"`, `"recv_ctx_evicts"`, `"no_mux"`, `"mux"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, buf.String())
		}
	}
}
