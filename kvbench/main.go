// Command kvbench is herdkv's benchmark. It drives herdkv only through
// the public herdkv package, generates every input itself from -seed,
// checks every value it reads back, and prints each metric by name
// with its unit; the last line of standard output is one JSON object.
//
//	go run . -workload read-uniform -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer
// ones. -workload all runs every workload. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// heldOutSeed is never used while tuning herdkv or this benchmark; a
// performance claim must also hold on it.
const heldOutSeed = 7

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: read-uniform, rw-zipf-fleet, many-conns or all")
	seed := fs.Int64("seed", 1, fmt.Sprintf("workload seed (%d is held out for checking claims)", heldOutSeed))
	seconds := fs.Int("seconds", 10, "host seconds to spend measuring, per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "kvbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "kvbench: -seconds must be at least 1")
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "kvbench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	// The simulation is one goroutine; a second processor is left for
	// the garbage collector.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	results := map[string]result{}
	code := 0
	for _, w := range selected {
		var res runResult
		var err error
		if *trace == 0 {
			res, err = runEndToEnd(w, *seed, *seconds)
		} else {
			res, err = runTraced(w, *seed, *seconds)
		}
		if err == nil {
			err = res.m.complete(defs)
		}
		out := result{Correct: err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
		for _, d := range defs {
			if v, ok := res.m[d.name]; ok {
				out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
			}
		}
		printTable(stdout, w.name, defs, res.m)
		if err != nil {
			fmt.Fprintf(stderr, "kvbench: %s: %v\n", w.name, err)
			var incorrect *incorrectError
			if !errors.As(err, &incorrect) {
				return 1 // nothing trustworthy to report
			}
			code = 1
		}
		results[w.name] = out
	}
	var last any = results
	if len(selected) == 1 {
		last = results[selected[0].name]
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "kvbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// incorrectError marks a run that completed but read back a wrong value
// or broke a determinism check: its result is printed with correct
// false.
type incorrectError struct{ err error }

func (e *incorrectError) Error() string { return e.err.Error() }
func (e *incorrectError) Unwrap() error { return e.err }

func printTable(w io.Writer, workload string, defs []metricDef, m metrics) {
	names := make([]string, 0, len(defs))
	unit := map[string]string{}
	for _, d := range defs {
		names = append(names, d.name)
		unit[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := m[n]; ok {
			fmt.Fprintf(w, "%-14s %-32s %16.6g %s\n", workload, n, v, unit[n])
		}
	}
}
