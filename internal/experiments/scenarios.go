package experiments

import (
	"encoding/json"
	"io"

	"herdkv/internal/cluster"
)

// Scenario is one herdbench target: the paper's tables and figures,
// the ablations, and the beyond-paper scenarios.
type Scenario struct {
	// Name is the herdbench target name.
	Name string
	// JSON is the BENCH_<JSON>.json stem the result is written under,
	// or "" when the target has no JSON form.
	JSON string
	// Run executes the target on spec. The result is nil for targets
	// without a JSON form.
	Run func(cluster.Spec) (*Table, any)
}

// Scenarios is every herdbench target, in `herdbench -list` order.
// herdbench, the replay tests and the bench ratchet all read this list.
var Scenarios = []Scenario{
	{Name: "table1", Run: specFree(Table1Verbs)},
	{Name: "table2", Run: specFree(Table2Clusters)},
	{Name: "fig1", Run: specFree(Fig1Steps)},
	{Name: "fig2", Run: tableOnly(Fig2Latency)},
	{Name: "fig3", Run: tableOnly(Fig3Inbound)},
	{Name: "fig4", Run: tableOnly(Fig4Outbound)},
	{Name: "fig5", Run: tableOnly(Fig5Echo)},
	{Name: "fig6", Run: tableOnly(Fig6AllToAll)},
	{Name: "fig7", Run: tableOnly(Fig7Prefetch)},
	{Name: "fig8", Run: specFree(Fig8Layout)},
	// Figure 9 always covers both clusters.
	{Name: "fig9", Run: specFree(Fig9Throughput)},
	{Name: "fig10", Run: tableOnly(Fig10ValueSize)},
	{Name: "fig11", Run: tableOnly(Fig11LatencyThroughput)},
	{Name: "fig12", Run: tableOnly(Fig12ClientScaling)},
	{Name: "fig13", Run: tableOnly(Fig13CPUCores)},
	{Name: "fig14", Run: tableOnly(Fig14Skew)},

	// Ablations beyond the paper's figures.
	{Name: "ablation-arch", Run: tableOnly(AblationArchitecture)},
	{Name: "ablation-inline", Run: tableOnly(AblationInlineCutoff)},
	{Name: "ablation-window", Run: tableOnly(AblationWindow)},
	{Name: "ablation-prefetch", Run: tableOnly(AblationPrefetch)},
	{Name: "ablation-doorbell", Run: tableOnly(AblationDoorbell)},
	{Name: "anatomy", Run: tableOnly(LatencyAnatomy)},
	{Name: "cpuuse", Run: tableOnly(CPUUse)},
	{Name: "symmetric", Run: tableOnly(SymmetricStudy)},
	{Name: "classical", Run: tableOnly(Classical)},

	// Robustness: HERD under a scripted fault schedule
	// (docs/ROBUSTNESS.md).
	{Name: "chaos", Run: tableOnly(ChaosScenario)},
	// Fleet scale-out: single vs sharded vs replicated fleet, and the
	// fleet under a crash-restart schedule (docs/SCALEOUT.md).
	{Name: "fleet-bench", JSON: "fleet", Run: withResult(FleetBench)},
	{Name: "fleet-chaos", Run: tableOnly(FleetChaosScenario)},
	// Overload: goodput and tail latency vs offered load, with and
	// without admission control + busy pushback + client AIMD
	// (docs/ROBUSTNESS.md).
	{Name: "overload", JSON: "overload", Run: withResult(Overload)},
	// Connection scalability: the Figure 12 cliff at 100..10k clients
	// and the endpoint multiplexing tier that removes it
	// (docs/SCALABILITY.md).
	{Name: "clients-sweep", JSON: "clients", Run: withResult(Clients)},
	// Durability: the fleet crashed mid-group-commit, warm WAL rejoin
	// vs cold re-replication (docs/DURABILITY.md).
	{Name: "durability", JSON: "durability", Run: withResult(DurabilityScenario)},
	// Hot-key survival: the skewed workload with and without the client
	// near cache + leases + hot-key widening (docs/CACHING.md).
	{Name: "hotkey", JSON: "hotkey", Run: withResult(Hotkey)},
	// Consistency: the nemesis-driven linearizability gate — first-ack
	// divergence vs versioned read repair under a generated chaos
	// schedule (docs/ROBUSTNESS.md).
	{Name: "consistency", JSON: "consistency", Run: withResult(ConsistencyScenario)},
}

// WriteJSON writes a scenario result as indented JSON, the format of
// every BENCH_*.json.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func specFree(f func() *Table) func(cluster.Spec) (*Table, any) {
	return func(cluster.Spec) (*Table, any) { return f(), nil }
}

func tableOnly(f func(cluster.Spec) *Table) func(cluster.Spec) (*Table, any) {
	return func(spec cluster.Spec) (*Table, any) { return f(spec), nil }
}

func withResult[R any](f func(cluster.Spec) (*Table, R)) func(cluster.Spec) (*Table, any) {
	return func(spec cluster.Spec) (*Table, any) { return f(spec) }
}
