package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
)

// hotkeyGate is the acceptance bar for the near-cache tier: on the
// paper's skewed workload the cached arm must beat the uncached fleet
// on goodput while the origin shards serve materially fewer GETs.
func hotkeyGate(t *testing.T, tbl *Table, res HotkeyResult) {
	if res.UncachedMops <= 0 || res.CachedMops <= 0 {
		t.Fatalf("zero throughput somewhere: %+v", res)
	}
	if res.CacheSpeedup <= 1 {
		t.Fatalf("cached arm %.2fx uncached, want > 1x: %+v", res.CacheSpeedup, res)
	}
	if res.CachedOriginGets >= res.UncachedOriginGets {
		t.Fatalf("origin GETs did not drop: cached %d >= uncached %d",
			res.CachedOriginGets, res.UncachedOriginGets)
	}
	if res.CacheHitRate <= 0.2 {
		t.Fatalf("cache hit rate %.2f implausibly low for Zipf(.99)", res.CacheHitRate)
	}
	if res.HotWidened == 0 {
		t.Fatalf("no hot reads widened off-primary: %+v", res)
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cached_mops"`, `"uncached_mops"`, `"cache_speedup"`,
		`"cached_origin_gets"`, `"cache_hit_rate"`, `"hot_widened"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, buf.String())
		}
	}
	if tbl.String() == "" {
		t.Fatal("empty hotkey table")
	}
}

// TestHotkeyGate applies hotkeyGate to one run of the hotkey scenario.
func TestHotkeyGate(t *testing.T) {
	shortWindows(t)
	tab, res := Hotkey(cluster.Apt())
	hotkeyGate(t, tab, res)
}

// TestHotkeyDeterminism pins replay: the whole two-arm comparison is a
// pure function of seed and configuration.
func TestHotkeyDeterminism(t *testing.T) {
	shortWindows(t)
	replayRow(t, registeredRow(t, "hotkey"))
}
