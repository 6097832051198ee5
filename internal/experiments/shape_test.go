package experiments

import (
	"strconv"
	"strings"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
)

// The shape tests assert the reproduction bands from DESIGN.md §3: not
// the paper's absolute numbers, but who wins, by roughly what factor,
// and where the crossovers fall.

// shortWindows shrinks the measurement windows for the rest of the
// test: the assertions are relative, which stabilizes quickly.
func shortWindows(t *testing.T) {
	w, s := Warmup, Span
	Warmup, Span = 50*sim.Microsecond, 150*sim.Microsecond
	t.Cleanup(func() { Warmup, Span = w, s })
}

func fval(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

func row(t *testing.T, tbl *Table, key string) []string {
	t.Helper()
	for _, r := range tbl.Rows {
		if r[0] == key {
			return r
		}
	}
	t.Fatalf("row %q missing from %s", key, tbl.ID)
	return nil
}

func TestShapeFig2(t *testing.T) {
	shortWindows(t)
	tbl := Fig2Latency(cluster.Apt())
	for _, size := range []string{"4", "32", "64"} {
		r := row(t, tbl, size)
		wrInline, write, read := fval(t, r[1]), fval(t, r[2]), fval(t, r[3])
		echo, half := fval(t, r[4]), fval(t, r[5])
		if wrInline >= write {
			t.Errorf("size %s: WR-INLINE (%.2f) should beat WRITE (%.2f)", size, wrInline, write)
		}
		if write > read*1.15 || read > write*1.15 {
			t.Errorf("size %s: WRITE (%.2f) and READ (%.2f) should be similar", size, write, read)
		}
		// "the one-way WRITE latency is about half of the READ latency"
		if half > read*0.75 {
			t.Errorf("size %s: ECHO/2 (%.2f) should be well below READ (%.2f)", size, half, read)
		}
		if echo < read*0.7 || echo > read*1.4 {
			t.Errorf("size %s: ECHO (%.2f) should be close to READ (%.2f) for small payloads", size, echo, read)
		}
		if read < 1 || read > 4 {
			t.Errorf("size %s: READ latency %.2f us outside the paper's 1-4 us band", size, read)
		}
	}
	// ECHO latency grows with payload (PIO store time).
	if e64, e256 := fval(t, row(t, tbl, "64")[4]), fval(t, row(t, tbl, "256")[4]); e256 <= e64 {
		t.Errorf("ECHO should grow with payload: 64B %.2f vs 256B %.2f", e64, e256)
	}
}

func TestShapeFig3(t *testing.T) {
	shortWindows(t)
	tbl := Fig3Inbound(cluster.Apt())
	r := row(t, tbl, "32")
	wUC, rRC, wRC := fval(t, r[1]), fval(t, r[2]), fval(t, r[3])
	// "WRITEs achieve 35 Mops, about 34% higher than the maximum READ
	// throughput (26 Mops)".
	if wUC < 33 || wUC > 40 {
		t.Errorf("inbound WRITE-UC = %.1f Mops, want ~35", wUC)
	}
	if rRC < 24 || rRC > 29 {
		t.Errorf("inbound READ = %.1f Mops, want ~26", rRC)
	}
	if wUC < rRC*1.25 {
		t.Errorf("WRITE (%.1f) should beat READ (%.1f) by >25%%", wUC, rRC)
	}
	// RC and UC WRITEs nearly identical inbound.
	if wRC < wUC*0.8 {
		t.Errorf("WRITE-RC (%.1f) should be close to WRITE-UC (%.1f)", wRC, wUC)
	}
	// Bandwidth-bound decline at large payloads.
	if large := fval(t, row(t, tbl, "1024")[1]); large > 8 {
		t.Errorf("1024 B inbound WRITE = %.1f Mops, should be bandwidth-bound (<8)", large)
	}
}

func TestShapeFig4(t *testing.T) {
	shortWindows(t)
	tbl := Fig4Outbound(cluster.Apt())
	small := row(t, tbl, "16")
	inline, nonInline, read := fval(t, small[1]), fval(t, small[3]), fval(t, small[4])
	if inline < 33 {
		t.Errorf("small inlined outbound WRITE = %.1f Mops, want >33", inline)
	}
	if read < 20 || read > 24 {
		t.Errorf("outbound READ = %.1f Mops, want ~22", read)
	}
	if inline <= read {
		t.Error("small inlined WRITEs must beat READs outbound")
	}
	if nonInline > read {
		t.Errorf("non-inlined WRITE (%.1f) should trail READ (%.1f) outbound", nonInline, read)
	}
	// SEND-UD drops at smaller payloads than WRITE (bigger WQE header).
	at28 := row(t, tbl, "28")
	if fval(t, at28[2]) >= fval(t, at28[1]) {
		t.Error("at 28 B, SEND-UD should already have stepped down while WR-INLINE has not")
	}
	// Inline crosses below non-inline for large payloads; the best WRITE
	// variant never falls below 50% of READ at the same size.
	at256 := row(t, tbl, "256")
	if fval(t, at256[1]) >= fval(t, at256[3]) {
		t.Error("at 256 B, non-inlined WRITE should beat inlined")
	}
	bestWrite := fval(t, at256[1])
	if v := fval(t, at256[3]); v > bestWrite {
		bestWrite = v
	}
	if read256 := fval(t, at256[4]); bestWrite < read256/2 {
		t.Errorf("best WRITE at 256 B (%.1f) below 50%% of READ (%.1f)", bestWrite, read256)
	}
}

func TestShapeFig5(t *testing.T) {
	shortWindows(t)
	tbl := Fig5Echo(cluster.Apt())
	ss := row(t, tbl, "SEND/SEND")
	ww := row(t, tbl, "WR/WR")
	ws := row(t, tbl, "WR/SEND")
	// Ladder must be monotone for every combo.
	for _, r := range [][]string{ss, ww, ws} {
		prev := 0.0
		for i := 1; i < len(r); i++ {
			v := fval(t, r[i])
			if v < prev*0.98 {
				t.Errorf("%s ladder not monotone: %v", r[0], r[1:])
			}
			prev = v
		}
	}
	// Final rungs: WR/SEND ~26, SEND/SEND ~21 (>3/4 of inbound READ 26).
	wsOpt, ssOpt := fval(t, ws[4]), fval(t, ss[4])
	if wsOpt < 24 || wsOpt > 29 {
		t.Errorf("optimized WR/SEND echo = %.1f Mops, want ~26", wsOpt)
	}
	if ssOpt < 19 || ssOpt > 23 {
		t.Errorf("optimized SEND/SEND echo = %.1f Mops, want ~21", ssOpt)
	}
	if ssOpt < 26*0.75 {
		t.Errorf("optimized SEND/SEND (%.1f) should exceed 3/4 of peak READ throughput", ssOpt)
	}
	// Optimizations matter: basic is a small fraction of optimized.
	if basic := fval(t, ws[1]); basic > wsOpt*0.5 {
		t.Errorf("basic WR/SEND (%.1f) should be well below optimized (%.1f)", basic, wsOpt)
	}
}

func TestShapeFig6(t *testing.T) {
	shortWindows(t)
	tbl := Fig6AllToAll(cluster.Apt())
	n16 := row(t, tbl, "16")
	in, outW, outS := fval(t, n16[1]), fval(t, n16[2]), fval(t, n16[3])
	if in < 30 {
		t.Errorf("inbound WRITE at N=16 = %.1f Mops; should scale (want >30)", in)
	}
	if outS < 24 {
		t.Errorf("outbound SEND-UD at N=16 = %.1f Mops; should scale (want >24)", outS)
	}
	// Outbound WRITE collapses: the paper reports 21% of peak at N=16.
	peakOut := fval(t, row(t, tbl, "8")[2])
	if outW > peakOut*0.45 {
		t.Errorf("outbound WRITE at N=16 (%.1f) should collapse below 45%% of its N=8 value (%.1f)",
			outW, peakOut)
	}
}

func TestShapeFig7(t *testing.T) {
	shortWindows(t)
	tbl := Fig7Prefetch(cluster.Apt())
	five := row(t, tbl, "5")
	n2np, n2p, n8np, n8p := fval(t, five[1]), fval(t, five[2]), fval(t, five[3]), fval(t, five[4])
	if n2p <= n2np || n8p <= n8np {
		t.Error("prefetching must increase throughput")
	}
	// "5 cores can deliver the peak throughput even with N = 8".
	if n8p < 24 {
		t.Errorf("N=8 prefetch at 5 cores = %.1f Mops; want near peak (>24)", n8p)
	}
	if n8np > n8p/2 {
		t.Errorf("N=8 no-prefetch (%.1f) should be less than half of prefetch (%.1f)", n8np, n8p)
	}
}

func TestShapeFig9(t *testing.T) {
	shortWindows(t)
	tbl := Fig9Throughput()
	apt5 := tbl.Rows[0] // Apt, 5% PUT
	pilaf, farmEm, farmVar, herd := fval(t, apt5[2]), fval(t, apt5[3]), fval(t, apt5[4]), fval(t, apt5[5])
	if herd < 24 || herd > 30 {
		t.Errorf("HERD read-intensive = %.1f Mops, want ~26", herd)
	}
	// "over 2X higher than FaRM-KV and Pilaf" (vs Pilaf and FaRM-VAR;
	// inline FaRM-em is closer at 32 B values).
	if herd < 2*pilaf {
		t.Errorf("HERD (%.1f) should be >2x Pilaf (%.1f)", herd, pilaf)
	}
	if herd < 1.7*farmVar {
		t.Errorf("HERD (%.1f) should be ~2x FaRM-em-VAR (%.1f)", herd, farmVar)
	}
	if farmEm <= pilaf {
		t.Errorf("FaRM-em (%.1f) should beat Pilaf (%.1f) on GETs", farmEm, pilaf)
	}
	// HERD throughput is workload-insensitive for 48 B items.
	apt100 := tbl.Rows[2]
	if h100 := fval(t, apt100[5]); h100 < herd*0.9 {
		t.Errorf("HERD 100%% PUT (%.1f) should match read-intensive (%.1f)", h100, herd)
	}
	// PUT throughput exceeds GET throughput for the emulated systems
	// (the paper's surprising observation).
	if p100 := fval(t, apt100[2]); p100 <= pilaf {
		t.Errorf("Pilaf 100%% PUT (%.1f) should exceed its GET throughput (%.1f)", p100, pilaf)
	}
	// Susitna (PCIe 2.0) tops out lower for every system.
	sus5 := tbl.Rows[3]
	if sHerd := fval(t, sus5[5]); sHerd >= herd {
		t.Errorf("Susitna HERD (%.1f) should trail Apt (%.1f)", sHerd, herd)
	}
}

func TestShapeFig10(t *testing.T) {
	shortWindows(t)
	tbl := Fig10ValueSize(cluster.Apt())
	// HERD >= native READ throughput (26) up to 60 B values.
	for _, sv := range []string{"4", "8", "16", "32"} {
		if h := fval(t, row(t, tbl, sv)[1]); h < 24 {
			t.Errorf("HERD at SV=%s = %.1f Mops; want >=24 (near native READ rate)", sv, h)
		}
	}
	// FaRM-em declines fastest with value size (READ grows as 6*(16+SV)).
	r32, r256 := row(t, tbl, "32"), row(t, tbl, "256")
	farmDrop := fval(t, r32[3]) / fval(t, r256[3])
	herdDrop := fval(t, r32[1]) / fval(t, r256[1])
	if farmDrop < herdDrop {
		t.Errorf("FaRM-em should decline faster than HERD (drops: farm %.1fx, herd %.1fx)",
			farmDrop, herdDrop)
	}
	// At 1 KB values HERD, Pilaf and FaRM-em-VAR converge (all
	// bandwidth-bound); inline FaRM-em is off on its own, strangled by
	// 6 KB+ neighborhood READs.
	r1000 := row(t, tbl, "1000")
	herd1000, pilaf1000, farm1000, farmVar1000 :=
		fval(t, r1000[1]), fval(t, r1000[2]), fval(t, r1000[3]), fval(t, r1000[4])
	lo, hi := herd1000, herd1000
	for _, v := range []float64{pilaf1000, farmVar1000} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 2.0*lo {
		t.Errorf("at 1 KB values HERD/Pilaf/FaRM-VAR should converge; got %.1f/%.1f/%.1f",
			herd1000, pilaf1000, farmVar1000)
	}
	if farm1000 >= lo {
		t.Errorf("inline FaRM-em at 1 KB (%.1f) should be the slowest (others >= %.1f)", farm1000, lo)
	}
}

func TestShapeFig11(t *testing.T) {
	shortWindows(t)
	tbl := Fig11LatencyThroughput(cluster.Apt())
	type point struct{ mops, mean float64 }
	series := map[string][]point{}
	for _, r := range tbl.Rows {
		series[r[0]] = append(series[r[0]], point{fval(t, r[2]), fval(t, r[3])})
	}
	// kneeLatency: the mean latency at the first load level reaching 95%
	// of the system's peak throughput (the paper compares latencies "at
	// their peak throughput").
	knee := func(sys string) point {
		pts := series[sys]
		max := 0.0
		for _, p := range pts {
			if p.mops > max {
				max = p.mops
			}
		}
		for _, p := range pts {
			if p.mops >= 0.95*max {
				return p
			}
		}
		return pts[len(pts)-1]
	}
	herd := knee(SysHERD)
	// "26 Mops with ~5 us average latency".
	if herd.mops < 24 {
		t.Errorf("HERD peak = %.1f Mops, want ~26", herd.mops)
	}
	if herd.mean < 1.5 || herd.mean > 8 {
		t.Errorf("HERD latency at peak = %.1f us, want ~2-5", herd.mean)
	}
	// HERD's latency at its (much higher) peak is well below the
	// READ-based systems' latency at theirs ("over 2X lower than Pilaf
	// and FaRM-KV at their peak throughput").
	for _, sys := range []string{SysPilaf, SysFaRMVar} {
		p := knee(sys)
		if p.mean < herd.mean*1.5 {
			t.Errorf("%s knee latency %.1f us should be >1.5x HERD's %.1f us", sys, p.mean, herd.mean)
		}
		if p.mops > herd.mops/1.7 {
			t.Errorf("%s peak (%.1f) should be well below HERD's (%.1f)", sys, p.mops, herd.mops)
		}
	}
}

func TestShapeFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("client-scaling sweep is slow")
	}
	shortWindows(t)
	tbl := Fig12ClientScaling(cluster.Apt())
	at260 := fval(t, row(t, tbl, "260")[1])
	at500w4 := fval(t, row(t, tbl, "500")[1])
	at500w16 := fval(t, row(t, tbl, "500")[2])
	if at260 < 24 {
		t.Errorf("HERD at 260 clients = %.1f Mops; should still be at peak", at260)
	}
	if at500w4 > at260*0.75 {
		t.Errorf("HERD WS=4 at 500 clients (%.1f) should decline markedly from 260 (%.1f)",
			at500w4, at260)
	}
	if at500w16 < at500w4*1.2 {
		t.Errorf("WS=16 (%.1f) should hold up much better than WS=4 (%.1f) at 500 clients",
			at500w16, at500w4)
	}
}

func TestShapeFig13(t *testing.T) {
	shortWindows(t)
	tbl := Fig13CPUCores(cluster.Apt())
	one := row(t, tbl, "1")
	herd1 := fval(t, one[1])
	// "with a uniform workload and using only a single core, HERD can
	// deliver 6.3 Mops".
	if herd1 < 5.3 || herd1 > 7.6 {
		t.Errorf("HERD 1-core = %.1f Mops, want ~6.3", herd1)
	}
	// Pilaf needs the most cores (RECV reposting).
	if pilaf1 := fval(t, one[2]); pilaf1 >= herd1 {
		t.Errorf("Pilaf per-core PUT (%.1f) should trail HERD (%.1f)", pilaf1, herd1)
	}
	// "HERD delivers over 95% of its maximum throughput with 5 cores".
	herd5, herd7 := fval(t, row(t, tbl, "5")[1]), fval(t, row(t, tbl, "7")[1])
	if herd5 < herd7*0.95 {
		t.Errorf("HERD 5-core (%.1f) should be >=95%% of 7-core (%.1f)", herd5, herd7)
	}
}

func TestShapeFig14(t *testing.T) {
	shortWindows(t)
	tbl := Fig14Skew(cluster.Apt())
	total := row(t, tbl, "total")
	zipf, uniform := fval(t, total[1]), fval(t, total[2])
	// "delivering its maximum performance even when the Zipf parameter
	// is .99".
	if zipf < uniform*0.9 {
		t.Errorf("Zipf total (%.1f) should match uniform (%.1f)", zipf, uniform)
	}
	// Most-loaded core within ~2x of least-loaded.
	lo, hi := 1e18, 0.0
	for _, r := range tbl.Rows {
		if r[0] == "total" {
			continue
		}
		v := fval(t, r[1])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 2.2*lo {
		t.Errorf("per-core Zipf skew %.2fx exceeds the paper's ~1.5x", hi/lo)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1Verbs()
	want := map[string][3]string{
		"SEND/RECV": {"yes", "yes", "yes"},
		"WRITE":     {"yes", "yes", "no"},
		"READ":      {"yes", "no", "no"},
	}
	for _, r := range tbl.Rows {
		w := want[r[0]]
		if r[1] != w[0] || r[2] != w[1] || r[3] != w[2] {
			t.Errorf("table1 row %v, want %v", r, w)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 3)
	s := tbl.String()
	for _, want := range []string{"== x: t ==", "a  bb", "1  2", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q in:\n%s", want, s)
		}
	}
}
