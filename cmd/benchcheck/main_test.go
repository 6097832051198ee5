package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchDirs writes a baseline and a fresh directory, each holding the
// given BENCH_*.json files (name -> contents).
func benchDirs(t *testing.T, base, fresh map[string]string) (string, string) {
	t.Helper()
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, files := range []map[string]string{base, fresh} {
		for name, body := range files {
			if err := os.WriteFile(filepath.Join(dirs[i], name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dirs[0], dirs[1]
}

const baseline = `{"fleet_mops": 10, "sweep": [{"goodput_mops": 4}]}`

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fresh  map[string]string
		ok     bool
		output string
	}{
		{"unchanged", map[string]string{"BENCH_a.json": baseline}, true, "ok fleet_mops: 10.000 -> 10.000 (+0.0%)"},
		{"drop past the limit",
			map[string]string{"BENCH_a.json": `{"fleet_mops": 9.4, "sweep": [{"goodput_mops": 4}]}`},
			false, "FAIL fleet_mops: 10.000 -> 9.400 (6.0% drop, limit 5%)"},
		{"drop within the limit",
			map[string]string{"BENCH_a.json": `{"fleet_mops": 9.6, "sweep": [{"goodput_mops": 4}]}`},
			true, "ok fleet_mops: 10.000 -> 9.600 (-4.0%)"},
		{"baseline leaf missing",
			map[string]string{"BENCH_a.json": `{"fleet_mops": 10}`},
			false, "FAIL sweep[0].goodput_mops: in baseline (4.000) but missing"},
		{"fresh file missing", map[string]string{"BENCH_b.json": baseline}, false, "FAIL fleet_mops: in baseline (10.000) but missing"},
		{"improvement and new leaves",
			map[string]string{"BENCH_a.json": `{"fleet_mops": 12, "z_mops": 1, "y_mops": 2, "sweep": [{"goodput_mops": 4}]}`},
			true, " new y_mops: 2.000 (no baseline yet)\n new z_mops: 1.000 (no baseline yet)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, freshDir := benchDirs(t, map[string]string{"BENCH_a.json": baseline}, tc.fresh)
			var out strings.Builder
			ok, err := check(&out, baseDir, freshDir, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok || !strings.Contains(out.String(), tc.output) {
				t.Fatalf("check = %v, want %v with %q in:\n%s", ok, tc.ok, tc.output, out.String())
			}
		})
	}
}

func TestCheckErrors(t *testing.T) {
	for _, tc := range []struct {
		name        string
		base, fresh map[string]string
		err         string
	}{
		{"fresh file without mops leaves", map[string]string{"BENCH_a.json": baseline},
			map[string]string{"BENCH_a.json": `{"p99_us": 3}`}, "no throughput (*mops*) leaves"},
		{"baseline without mops leaves", map[string]string{"BENCH_a.json": `{"p99_us": 3}`},
			map[string]string{"BENCH_a.json": baseline}, "no throughput (*mops*) leaves"},
		{"no baselines", nil, map[string]string{"BENCH_a.json": baseline}, "no BENCH_*.json baselines"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, freshDir := benchDirs(t, tc.base, tc.fresh)
			if _, err := check(&strings.Builder{}, baseDir, freshDir, 0.05); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("check error = %v, want %q", err, tc.err)
			}
		})
	}
}
