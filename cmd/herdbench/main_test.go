package main

import (
	"strings"
	"testing"

	"herdkv/internal/experiments"
)

// TestResolveTargets checks that every target name is resolved before
// any target runs: an unknown name anywhere in the list is an error,
// and no scenario is returned to run.
func TestResolveTargets(t *testing.T) {
	got, err := resolveTargets([]string{"fig8", "table1"})
	if err != nil || len(got) != 2 || got[0].Name != "fig8" || got[1].Name != "table1" {
		t.Fatalf("resolveTargets(fig8 table1) = %v, %v; want the two rows in order", got, err)
	}
	for _, args := range [][]string{nil, {"all"}} {
		if got, err := resolveTargets(args); err != nil || len(got) != len(experiments.Scenarios) {
			t.Fatalf("resolveTargets(%q) = %d rows, %v; want all %d", args, len(got), err, len(experiments.Scenarios))
		}
	}
	for _, args := range [][]string{{"nosuch"}, {"fig8", "nosuch"}, {"fig8", "all"}} {
		got, err := resolveTargets(args)
		if err == nil || got != nil {
			t.Fatalf("resolveTargets(%q) = %v, %v; want an error and nothing to run", args, got, err)
		}
		if bad := args[len(args)-1]; !strings.Contains(err.Error(), bad) {
			t.Fatalf("error %q does not name the unknown target %q", err, bad)
		}
	}
}
