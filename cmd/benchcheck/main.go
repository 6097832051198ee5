// Command benchcheck is the benchmark ratchet: it compares freshly
// generated benchmark JSON against the committed baselines and fails
// when any throughput leaf regressed past the allowed fraction.
//
// Usage:
//
//	benchcheck [-max-regress 0.05] BASELINE_DIR FRESH_DIR
//
// Every BASELINE_DIR/BENCH_*.json is checked against the same-named
// file in FRESH_DIR, so committing a baseline file is the whole step to
// ratchet a scenario. A baseline without a fresh file fails.
//
// Throughput leaves are numeric JSON fields whose key contains "mops"
// (the convention every BENCH_*.json in this repo follows). Fields
// present in the baseline but missing from the fresh file fail the
// check too — a renamed field silently dropping out of the ratchet is
// exactly the kind of drift this tool exists to catch. Improvements
// and new fields are reported but never fail.
//
// The simulator is deterministic, so a regression here is a real code
// change slowing a measured path, not noise; the slack exists only to
// absorb intentional small trade-offs without a baseline churn per PR.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	maxRegress := flag.Float64("max-regress", 0.05,
		"maximum allowed fractional drop per throughput leaf")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-max-regress f] BASELINE_DIR FRESH_DIR")
		os.Exit(2)
	}
	ok, err := check(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !ok {
		fmt.Printf("benchcheck: %s regressed vs %s\n", flag.Arg(1), flag.Arg(0))
		os.Exit(1)
	}
}

// check compares every baseDir/BENCH_*.json against the same-named file
// in freshDir, reporting each leaf to w. It returns false when a leaf
// dropped more than maxRegress or is missing from the fresh file (or
// the fresh file is missing); an unreadable file or one without
// throughput leaves is an error.
func check(w io.Writer, baseDir, freshDir string, maxRegress float64) (bool, error) {
	paths, _ := filepath.Glob(filepath.Join(baseDir, "BENCH_*.json")) // the pattern is well-formed
	if len(paths) == 0 {
		return false, fmt.Errorf("%s: no BENCH_*.json baselines", baseDir)
	}
	ok := true
	for _, path := range paths {
		base, err := loadLeaves(path)
		if err != nil {
			return false, err
		}
		// A missing fresh file fails as every baseline leaf missing.
		freshPath := filepath.Join(freshDir, filepath.Base(path))
		fresh, err := loadLeaves(freshPath)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, err
		}
		fmt.Fprintf(w, "%s:\n", freshPath)
		for _, k := range sortedKeys(base) {
			was := base[k]
			now, found := fresh[k]
			switch {
			case !found:
				fmt.Fprintf(w, "FAIL %s: in baseline (%.3f) but missing from %s\n", k, was, freshPath)
				ok = false
			case was <= 0:
				fmt.Fprintf(w, "  ok %s: baseline %.3f not positive, skipped\n", k, was)
			case now < was*(1-maxRegress):
				fmt.Fprintf(w, "FAIL %s: %.3f -> %.3f (%.1f%% drop, limit %.0f%%)\n",
					k, was, now, (1-now/was)*100, maxRegress*100)
				ok = false
			default:
				fmt.Fprintf(w, "  ok %s: %.3f -> %.3f (%+.1f%%)\n", k, was, now, (now/was-1)*100)
			}
		}
		for _, k := range sortedKeys(fresh) {
			if _, found := base[k]; !found {
				fmt.Fprintf(w, " new %s: %.3f (no baseline yet)\n", k, fresh[k])
			}
		}
	}
	return ok, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadLeaves extracts every numeric leaf whose key contains "mops"
// from an arbitrary JSON document (objects and arrays are walked;
// array indexes become path segments so sweep points stay distinct).
func loadLeaves(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	leaves := make(map[string]float64)
	walk(doc, "", leaves)
	if len(leaves) == 0 {
		return nil, fmt.Errorf("%s: no throughput (*mops*) leaves found", path)
	}
	return leaves, nil
}

func walk(node interface{}, prefix string, out map[string]float64) {
	switch v := node.(type) {
	case map[string]interface{}:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			if n, ok := child.(float64); ok && strings.Contains(strings.ToLower(k), "mops") {
				out[p] = n
				continue
			}
			walk(child, p, out)
		}
	case []interface{}:
		for i, child := range v {
			walk(child, fmt.Sprintf("%s[%d]", prefix, i), out)
		}
	}
}
