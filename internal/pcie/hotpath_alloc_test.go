package pcie

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// TestHotpathAllocFree gates the bus's //herd:hotpath functions at
// 0 allocs/op, with telemetry attached. A transfer's completion is a
// two-leg sim.Server.SubmitThen event carrying done itself, so neither
// the engine occupancy nor the latency that follows it needs a closure.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	b.SetTelemetry(telemetry.New())
	done := func(sim.Time) {}
	hotgate.Check(t, ".", map[string]func(){
		"Cachelines":          func() { _ = Cachelines(200) },
		"Bus.PIOCost":         func() { _ = b.PIOCost(200) },
		"Bus.PIOExtraLatency": func() { _ = b.PIOExtraLatency(200) },
		"Bus.xferTime":        func() { _ = b.xferTime(1000) },
		"Bus.PIOWrite":        func() { b.PIOWrite(100, done); eng.Run() },
		"Bus.DMARead":         func() { b.DMARead(100, done); eng.Run() },
		"Bus.DMAWrite":        func() { b.DMAWrite(100, nil); eng.Run() },
	})
}
