package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// Susitna-specific claims from Section 5 and Figure 10's lower panel.

func TestShapeSusitnaFig10(t *testing.T) {
	shortWindows(t)
	tbl := Fig10ValueSize(cluster.Susitna())
	// "FaRM-em saturates the PCIe 2.0 bandwidth on Susitna with 4 byte
	// values": its throughput at SV=4 is already well below Apt's READ
	// ceiling and strictly declines.
	f4 := fval(t, row(t, tbl, "4")[3])
	f32 := fval(t, row(t, tbl, "32")[3])
	if f4 > 24 {
		t.Errorf("FaRM-em at SV=4 on Susitna = %.1f Mops; should already be PCIe-bound (<24)", f4)
	}
	if f32 >= f4 {
		t.Errorf("FaRM-em should decline from SV=4 (%.1f) to SV=32 (%.1f)", f4, f32)
	}
	// "HERD achieves high performance for up to 32 byte values on
	// Susitna" then declines with the PIO limit.
	h8 := fval(t, row(t, tbl, "8")[1])
	h128 := fval(t, row(t, tbl, "128")[1])
	if h8 < 17 {
		t.Errorf("HERD at SV=8 on Susitna = %.1f Mops, want ~19-26", h8)
	}
	if h128 >= h8 {
		t.Errorf("HERD should decline past the Susitna PIO limit: %.1f vs %.1f", h128, h8)
	}
}

func TestShapeSusitnaBelowApt(t *testing.T) {
	shortWindows(t)
	// Every system tops out lower on Susitna (PCIe 2.0, 40 Gbps RoCE).
	for _, sys := range AllSystems {
		apt := runE2E(defaultE2E(cluster.Apt(), sys)).Mops
		sus := runE2E(defaultE2E(cluster.Susitna(), sys)).Mops
		if sus > apt*1.05 {
			t.Errorf("%s: Susitna (%.1f) should not beat Apt (%.1f)", sys, sus, apt)
		}
	}
}

func TestShapeSusitnaLatencyHigher(t *testing.T) {
	shortWindows(t)
	apt := Fig2Latency(cluster.Apt())
	sus := Fig2Latency(cluster.Susitna())
	aptRead := fval(t, row(t, apt, "32")[3])
	susRead := fval(t, row(t, sus, "32")[3])
	if susRead <= aptRead {
		t.Errorf("Susitna READ latency (%.2f) should exceed Apt's (%.2f)", susRead, aptRead)
	}
}
