package main

import (
	"fmt"
	"sort"
)

// metricDef is one metric the runner reports, exactly as it is listed
// in BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the store sees, reported by an
// untraced run. Modeled metrics come from the virtual clock and repeat
// bit for bit for one seed; host metrics come from the wall clock and
// the Go runtime.
var endToEnd = []metricDef{
	{"slo_mops", "Mops", "higher"},      // modeled
	{"p50_us", "us", "lower"},           // modeled
	{"p999_us", "us", "lower"},          // modeled
	{"peak_mops", "Mops", "higher"},     // modeled
	{"served_ratio", "ratio", "higher"}, // modeled
	{"host_us_per_op", "us", "lower"},   // host
	{"allocs_per_op", "count", "lower"}, // host
	{"heap_mb", "MB", "lower"},          // host
	{"setup_s", "s", "lower"},           // host
}

// hostLayers are the packages CPU profile samples are attributed to.
var hostLayers = []string{
	"sim", "wire", "pcie", "nic", "verbs", "hostmem", "mica", "core",
	"wal", "fleet", "nearcache", "mux", "telemetry", "bench", "runtime-gc", "runtime-other",
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"latency.samples", "count", "higher"},
		{"fail_ratio", "ratio", "lower"},
		{"kv.op_p99_us", "us", "lower"},
		{"sim.events_per_op", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
		{"sim.allocs_per_event", "count", "lower"},
		{"setup.cluster_s", "s", "lower"},
		{"setup.preload_s", "s", "lower"},
		{"setup.connect_s", "s", "lower"},
		{"host.heap_setup_mb", "MB", "lower"},
		{"host.heap_growth_mb", "MB", "lower"},
		{"trace.overhead", "ratio", "lower"},
		{"pcie.pio_util", "ratio", "lower"},
		{"pcie.to_host_util", "ratio", "lower"},
		{"pcie.from_host_util", "ratio", "lower"},
		{"pcie.dma_reads_per_op", "count", "lower"},
		{"pcie.pio_bytes_per_op", "B", "lower"},
		{"nic.pu_util", "ratio", "lower"},
		{"nic.recv_ctx_hit_rate", "ratio", "higher"},
		{"nic.send_ctx_hit_rate", "ratio", "higher"},
		{"nic.ctx_evicts_per_op", "count", "lower"},
		{"wire.ingress_util", "ratio", "lower"},
		{"wire.egress_util", "ratio", "lower"},
		{"wire.packets_per_op", "count", "lower"},
		{"verbs.WRITE.posted_per_op", "count", "lower"},
		{"verbs.SEND.posted_per_op", "count", "lower"},
		{"verbs.RECV.posted_per_op", "count", "lower"},
		{"verbs.READ.posted_per_op", "count", "lower"},
		{"verbs.inline_ratio", "ratio", "higher"},
		{"verbs.unsignaled_ratio", "ratio", "higher"},
		{"verbs.send_dropped", "count", "lower"},
		{"cpu.core_util_max", "ratio", "lower"},
		{"cpu.core_util_mean", "ratio", "lower"},
		{"cpu.core_wait_us", "us", "lower"},
		{"mica.get_hit_rate", "ratio", "higher"},
		{"mica.mem_accesses_per_op", "count", "lower"},
		{"mica.index_evictions", "count", "lower"},
		{"mica.log_wraps", "count", "lower"},
		{"core.shard_ops_per_op", "count", "lower"},
		{"core.queue_depth_max", "count", "lower"},
		{"core.retries", "count", "lower"},
		{"core.failed", "count", "lower"},
		{"core.shed", "count", "lower"},
		{"core.get_p99_us", "us", "lower"},
		{"core.put_p99_us", "us", "lower"},
		{"wal.appends_per_put", "count", "lower"},
		{"wal.records_per_flush", "count", "higher"},
		{"fleet.fanout_per_put", "count", "lower"},
		{"fleet.repair_issued", "count", "lower"},
		{"fleet.writes_partial", "count", "lower"},
		{"fleet.reroutes", "count", "lower"},
		{"fleet.op_p99_us", "us", "lower"},
		{"cache.hit_rate", "ratio", "higher"},
		{"cache.herd_waits_per_op", "count", "lower"},
		{"cache.invalidations_per_put", "count", "lower"},
		{"mux.queue_depth_max", "count", "lower"},
		{"mux.stalls_per_op", "count", "lower"},
		{"mux.op_p99_us", "us", "lower"},
	}
	for _, s := range traceStages {
		defs = append(defs,
			metricDef{"stage." + s + ".mean_us", "us", "lower"},
			metricDef{"stage." + s + ".p99_us", "us", "lower"})
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host.self." + l, "ratio", "lower"})
	}
	return defs
}()

// metrics is one run's reported values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// complete checks that m holds exactly the metrics of defs.
func (m metrics) complete(defs []metricDef) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := m[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	var extra []string
	for name := range m {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics not in the catalog: %v", extra)
	}
	return nil
}
