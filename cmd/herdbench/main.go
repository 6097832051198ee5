// Command herdbench regenerates the paper's tables and figures on the
// simulated clusters.
//
// Usage:
//
//	herdbench [-cluster apt|susitna] [-warmup us] [-span us]
//	          [-metrics file] [-trace file] [-perqp]
//	          [-faults script] [-json dir] [targets...]
//
// -list prints every target, in the order "all" (the default) runs
// them; see EXPERIMENTS.md for what each reproduces. -faults replaces
// the "chaos" target's packaged crash-restart schedule with a chaos
// script (see docs/ROBUSTNESS.md for the format).
//
// -json dir writes each scenario target's result, when it runs, as
// dir/BENCH_<name>.json (fleet-bench writes BENCH_fleet.json,
// clients-sweep BENCH_clients.json, the rest under their own names).
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
	var names, jsonTargets []string
	byName := make(map[string]experiments.Scenario)
	for _, sc := range experiments.Scenarios {
		byName[sc.Name] = sc
		names = append(names, sc.Name)
		if sc.JSON != "" {
			jsonTargets = append(jsonTargets, sc.Name)
		}
	}
	jsonDir := flag.String("json", "", "write DIR/BENCH_<name>.json for each scenario target that runs ("+strings.Join(jsonTargets, ", ")+")")
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

	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = names
	}
	for _, name := range want {
		sc, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown target %q; -list shows options\n", name)
			os.Exit(2)
		}
		if name == "chaos" && *faultsFile != "" {
			sc.Run = chaosScript(*faultsFile)
		}
		start := time.Now()
		tbl, res := sc.Run(spec)
		if *jsonDir != "" && sc.JSON != "" {
			writeFile(filepath.Join(*jsonDir, "BENCH_"+sc.JSON+".json"), func(w io.Writer) error {
				return experiments.WriteJSON(w, res)
			})
		}
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

// chaosScript runs the chaos target under the schedule in path instead
// of the packaged one.
func chaosScript(path string) func(cluster.Spec) (*experiments.Table, any) {
	return func(spec cluster.Spec) (*experiments.Table, any) {
		script, err := os.ReadFile(path)
		var sched *fault.Schedule
		if err == nil {
			sched, err = fault.ParseSchedule(string(script))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return experiments.Chaos(spec, sched, 1), nil
	}
}

// writeFile writes one artifact via the given writer function. A
// failed write or close exits 1: the artifact would be truncated.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
