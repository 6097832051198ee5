// Command herdbench regenerates the paper's tables and figures on the
// simulated clusters.
//
// Usage:
//
//	herdbench [-cluster apt|susitna] [-warmup us] [-span us]
//	          [-metrics file] [-trace file] [-perqp]
//	          [-faults script] [-json dir] [targets...]
//
// Targets are table1, table2, fig2..fig7, fig9..fig14, or "all"
// (default). Figure 9 always covers both clusters. The "chaos" target
// runs the packaged crash-restart scenario; -faults replaces its
// schedule with a chaos script (see docs/ROBUSTNESS.md for the format).
// "fleet-bench" compares single vs sharded vs replicated-fleet
// deployments and "fleet-chaos" runs the fleet through a shard crash;
// see docs/SCALEOUT.md. "overload" sweeps offered load past saturation
// with and without the overload controller; see docs/ROBUSTNESS.md.
// "clients-sweep" sweeps the client count from 100 to 10k with and
// without the endpoint multiplexing tier; see docs/SCALABILITY.md.
// "durability" crashes a durable fleet mid-group-commit and compares
// warm WAL rejoin against cold re-replication; see docs/DURABILITY.md.
// "hotkey" runs the skewed workload with and without the client near
// cache + leases + hot-key widening; see docs/CACHING.md.
// "consistency" searches nemesis seeds for a schedule under which the
// first-ack fleet serves a provably stale read, minimizes it, and
// proves versioned writes + read repair restore linearizability; see
// docs/ROBUSTNESS.md.
//
// -json dir writes each of those six scenarios' results, when it runs,
// as dir/BENCH_<name>.json: BENCH_fleet, BENCH_overload, BENCH_clients,
// BENCH_durability, BENCH_hotkey and BENCH_consistency.
//
// -metrics dumps the cluster-wide metric registry (per-verb posted and
// completion counters, PCIe transaction counts, NIC cache hit rates,
// latency histograms) after all targets run. -trace records every
// request's lifecycle as spans and writes Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. See
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"herdkv/internal/cluster"
	"herdkv/internal/experiments"
	"herdkv/internal/fault"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

func main() {
	clusterName := flag.String("cluster", "apt", "cluster preset: apt or susitna")
	warmupUS := flag.Int("warmup", 150, "warmup window (simulated microseconds)")
	spanUS := flag.Int("span", 400, "measurement window (simulated microseconds)")
	format := flag.String("format", "text", "output format: text or csv")
	list := flag.Bool("list", false, "list available targets and exit")
	metricsFile := flag.String("metrics", "", "write a metrics dump to this file after the targets run")
	traceFile := flag.String("trace", "", "write request-lifecycle spans as Chrome trace_event JSON to this file")
	perQP := flag.Bool("perqp", false, "with -metrics: also keep per-queue-pair posted counters")
	faultsFile := flag.String("faults", "", "chaos script for the chaos target (overrides the packaged scenario)")
	jsonDir := flag.String("json", "", "write DIR/BENCH_<name>.json for each scenario target that runs (fleet-bench, overload, clients-sweep, durability, hotkey, consistency)")
	flag.Parse()

	experiments.Warmup = sim.Time(*warmupUS) * sim.Microsecond
	experiments.Span = sim.Time(*spanUS) * sim.Microsecond

	var sink *telemetry.Sink
	if *metricsFile != "" || *traceFile != "" {
		sink = telemetry.New()
		sink.PerQP = *perQP
		if *traceFile != "" {
			sink.Tracer = telemetry.NewTracer()
		}
		cluster.SetDefaultTelemetry(sink)
	}

	var spec cluster.Spec
	switch strings.ToLower(*clusterName) {
	case "apt":
		spec = cluster.Apt()
	case "susitna":
		spec = cluster.Susitna()
	default:
		fmt.Fprintf(os.Stderr, "unknown cluster %q (want apt or susitna)\n", *clusterName)
		os.Exit(2)
	}

	targets := map[string]func() *experiments.Table{
		"table1": experiments.Table1Verbs,
		"table2": experiments.Table2Clusters,
		"fig1":   experiments.Fig1Steps,
		"fig2":   func() *experiments.Table { return experiments.Fig2Latency(spec) },
		"fig3":   func() *experiments.Table { return experiments.Fig3Inbound(spec) },
		"fig4":   func() *experiments.Table { return experiments.Fig4Outbound(spec) },
		"fig5":   func() *experiments.Table { return experiments.Fig5Echo(spec) },
		"fig6":   func() *experiments.Table { return experiments.Fig6AllToAll(spec) },
		"fig7":   func() *experiments.Table { return experiments.Fig7Prefetch(spec) },
		"fig8":   experiments.Fig8Layout,
		"fig9":   experiments.Fig9Throughput,
		"fig10":  func() *experiments.Table { return experiments.Fig10ValueSize(spec) },
		"fig11":  func() *experiments.Table { return experiments.Fig11LatencyThroughput(spec) },
		"fig12":  func() *experiments.Table { return experiments.Fig12ClientScaling(spec) },
		"fig13":  func() *experiments.Table { return experiments.Fig13CPUCores(spec) },
		"fig14":  func() *experiments.Table { return experiments.Fig14Skew(spec) },

		// Ablations beyond the paper's figures.
		"ablation-arch":     func() *experiments.Table { return experiments.AblationArchitecture(spec) },
		"ablation-inline":   func() *experiments.Table { return experiments.AblationInlineCutoff(spec) },
		"ablation-window":   func() *experiments.Table { return experiments.AblationWindow(spec) },
		"ablation-prefetch": func() *experiments.Table { return experiments.AblationPrefetch(spec) },
		"ablation-doorbell": func() *experiments.Table { return experiments.AblationDoorbell(spec) },
		"anatomy":           func() *experiments.Table { return experiments.LatencyAnatomy(spec) },
		"cpuuse":            func() *experiments.Table { return experiments.CPUUse(spec) },
		"symmetric":         func() *experiments.Table { return experiments.SymmetricStudy(spec) },
		"classical":         func() *experiments.Table { return experiments.Classical(spec) },

		// Fleet scale-out: single vs sharded vs replicated fleet, and
		// the fleet under a crash-restart schedule (docs/SCALEOUT.md).
		"fleet-bench": scenario(*jsonDir, "fleet", experiments.FleetBench, spec),
		"fleet-chaos": func() *experiments.Table { return experiments.FleetChaosScenario(spec) },

		// Overload: goodput and tail latency vs offered load, with and
		// without admission control + busy pushback + client AIMD
		// (docs/ROBUSTNESS.md).
		"overload": scenario(*jsonDir, "overload", experiments.Overload, spec),

		// Connection scalability: the Figure 12 cliff at 100..10k clients
		// and the endpoint multiplexing tier that removes it
		// (docs/SCALABILITY.md).
		"clients-sweep": scenario(*jsonDir, "clients", experiments.Clients, spec),

		// Durability: the fleet crashed mid-group-commit, warm WAL
		// rejoin vs cold re-replication (docs/DURABILITY.md).
		"durability": scenario(*jsonDir, "durability", experiments.DurabilityScenario, spec),

		// Hot-key survival: the skewed workload with and without the
		// client near cache + leases + hot-key widening
		// (docs/CACHING.md).
		"hotkey": scenario(*jsonDir, "hotkey", experiments.Hotkey, spec),

		// Consistency: the nemesis-driven linearizability gate —
		// first-ack divergence vs versioned read repair under a
		// generated chaos schedule (docs/ROBUSTNESS.md).
		"consistency": scenario(*jsonDir, "consistency", experiments.ConsistencyScenario, spec),

		// Robustness: HERD under a scripted fault schedule.
		"chaos": func() *experiments.Table {
			if *faultsFile == "" {
				return experiments.ChaosScenario(spec)
			}
			script, err := os.ReadFile(*faultsFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			sched, err := fault.ParseSchedule(string(script))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return experiments.Chaos(spec, sched, 1)
		},
	}
	order := []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"ablation-arch", "ablation-inline", "ablation-window", "ablation-prefetch",
		"ablation-doorbell",
		"anatomy", "cpuuse", "symmetric", "classical", "chaos",
		"fleet-bench", "fleet-chaos", "overload", "clients-sweep", "durability",
		"hotkey", "consistency",
	}

	if *list {
		for _, name := range order {
			fmt.Println(name)
		}
		return
	}

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = order
	}
	for _, name := range want {
		fn, ok := targets[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown target %q; -list shows options\n", name)
			os.Exit(2)
		}
		start := time.Now()
		tbl := fn()
		if *format == "csv" {
			tbl.FprintCSV(os.Stdout)
			continue
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("  [%s generated in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	if *metricsFile != "" {
		writeFile(*metricsFile, sink.Registry.WriteText)
	}
	if *traceFile != "" {
		writeFile(*traceFile, sink.Tracer.WriteChromeTrace)
	}
}

// scenario wraps a target whose result also has a JSON form: with a
// non-empty dir it writes dir/BENCH_<name>.json after the run.
func scenario[R interface{ WriteJSON(io.Writer) error }](dir, name string, run func(cluster.Spec) (*experiments.Table, R), spec cluster.Spec) func() *experiments.Table {
	return func() *experiments.Table {
		tbl, res := run(spec)
		if dir != "" {
			writeFile(filepath.Join(dir, "BENCH_"+name+".json"), res.WriteJSON)
		}
		return tbl
	}
}

// writeFile writes one telemetry artifact via the given writer function.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
