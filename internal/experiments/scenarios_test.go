package experiments

import (
	"reflect"
	"sync"
	"testing"

	"herdkv/internal/cluster"
)

// scenarioRow is one TestScenarios case: a run to replay and, for a
// registered scenario with a JSON form, its acceptance gate.
type scenarioRow struct {
	name string
	run  func(cluster.Spec) (*Table, any)
	gate func(t *testing.T, tbl *Table, res any)
}

// gate adapts a typed gate body to a scenarioRow gate.
func gate[R any](g func(*testing.T, *Table, R)) func(*testing.T, *Table, any) {
	return func(t *testing.T, tbl *Table, res any) { g(t, tbl, res.(R)) }
}

// scenarioGates holds the acceptance gate of each registered scenario
// with a JSON form that TestScenarios checks, by target name.
var scenarioGates = map[string]func(*testing.T, *Table, any){
	"fleet-bench":   gate(fleetBenchGate),
	"overload":      gate(overloadGate),
	"clients-sweep": gate(clientsSweepGate),
}

// ownTests names the registered scenarios with a JSON form that keep
// their own gate and replay tests (TestDurabilityGate and
// TestDurabilityReplayStable, and the hotkey and consistency pairs)
// instead of a TestScenarios row. Every JSON scenario is in exactly one
// of scenarioGates and ownTests.
var ownTests = map[string]bool{
	"durability":  true,
	"hotkey":      true,
	"consistency": true,
}

// scenarioRows is every registered scenario with a JSON form, then
// Figure 5 and configurations no registered target runs on its own: the
// end-to-end HERD run, the chaos runs at seed 7, and one overload and
// one client-sweep point in both arms.
func scenarioRows(t *testing.T) []scenarioRow {
	var rows []scenarioRow
	own := 0
	for _, sc := range Scenarios {
		if sc.JSON == "" {
			continue
		}
		g, ok := scenarioGates[sc.Name]
		switch {
		case ok && ownTests[sc.Name]:
			t.Fatalf("registered scenario %q is in both scenarioGates and ownTests", sc.Name)
		case ok:
			rows = append(rows, scenarioRow{sc.Name, sc.Run, g})
		case ownTests[sc.Name]:
			own++
		default:
			t.Fatalf("registered scenario %q has no gate in scenarioGates and no entry in ownTests", sc.Name)
		}
	}
	if len(rows) != len(scenarioGates) || own != len(ownTests) {
		t.Fatalf("%d gates and %d own tests for %d+%d JSON scenarios: an entry names no registered scenario",
			len(scenarioGates), len(ownTests), len(rows), own)
	}
	return append(rows,
		scenarioRow{name: "fig5", run: tableOnly(Fig5Echo)},
		scenarioRow{name: "e2e-herd", run: func(spec cluster.Spec) (*Table, any) {
			return nil, runE2E(defaultE2E(spec, SysHERD))
		}},
		scenarioRow{name: "chaos-seed7", run: func(spec cluster.Spec) (*Table, any) {
			return Chaos(spec, testChaosSchedule(), 7), nil
		}},
		scenarioRow{name: "fleet-chaos-seed7", run: func(spec cluster.Spec) (*Table, any) {
			return FleetChaos(spec, fleetChaosSchedule(), 7), nil
		}},
		scenarioRow{name: "overload-64-chains", run: func(spec cluster.Spec) (*Table, any) {
			return nil, [2]OverloadPoint{overloadPoint(spec, 64, false), overloadPoint(spec, 64, true)}
		}},
		scenarioRow{name: "clients-1000", run: func(spec cluster.Spec) (*Table, any) {
			return nil, [2]ClientsPoint{clientsPoint(spec, 1000, false), clientsPoint(spec, 1000, true)}
		}},
	)
}

// scenarioRun is one execution of a row: its table text and result.
type scenarioRun struct {
	text string
	res  any
}

func (a scenarioRun) equal(b scenarioRun) bool {
	return a.text == b.text && reflect.DeepEqual(a.res, b.res)
}

// registeredRow is the registered scenario name as a row without a gate.
func registeredRow(t *testing.T, name string) scenarioRow {
	t.Helper()
	for _, sc := range Scenarios {
		if sc.Name == name {
			return scenarioRow{name: sc.Name, run: sc.Run}
		}
	}
	t.Fatalf("no registered scenario %q", name)
	return scenarioRow{}
}

func runRow(r scenarioRow) (*Table, scenarioRun) {
	tbl, res := r.run(cluster.Apt())
	if tbl == nil {
		return nil, scenarioRun{res: res}
	}
	return tbl, scenarioRun{tbl.String(), res}
}

// scenarioFirst keeps each row's first run for the lifetime of the test
// process. `go test -count=2` re-enters TestScenarios in the same
// process, so the second entry compares a complete fresh execution
// against the first one — catching leaked global state (an ambient
// rand, a shared cache, init-order dependence) that a within-run double
// execution can never see. CI runs it under -race -count=2.
var scenarioFirst sync.Map // row name -> scenarioRun

// TestScenarios pins the simulator's reproducibility guarantee and the
// scenarios' acceptance gates: each row runs twice and must reproduce
// its table and result exactly, within the run and across -count
// entries; then the row's gate checks the first run. Rows run in
// parallel with each other, under windows shortWindows sets before any
// starts and restores after all finish.
func TestScenarios(t *testing.T) {
	shortWindows(t)
	for _, r := range scenarioRows(t) {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			tbl, res := replayRow(t, r)
			if r.gate != nil {
				r.gate(t, tbl, res)
			}
		})
	}
}

// replayRow runs r twice and fails t unless both runs, and the first
// run of every earlier -count entry, have the same table and result.
// It returns the first run.
func replayRow(t *testing.T, r scenarioRow) (*Table, any) {
	t.Helper()
	tbl, got := runRow(r)
	if _, again := runRow(r); !got.equal(again) {
		t.Fatalf("replay diverged within the run:\n--- first ---\n%s%+v\n--- second ---\n%s%+v",
			got.text, got.res, again.text, again.res)
	}
	if v, loaded := scenarioFirst.LoadOrStore(r.name, got); loaded && !got.equal(v.(scenarioRun)) {
		first := v.(scenarioRun)
		t.Fatalf("run diverged from the first in-process entry (leaked global state?):\n--- first ---\n%s%+v\n--- this entry ---\n%s%+v",
			first.text, first.res, got.text, got.res)
	}
	return tbl, got.res
}
