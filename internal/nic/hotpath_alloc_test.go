package nic

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// TestHotpathAllocFree gates the NIC's //herd:hotpath functions at
// 0 allocs/op, on a QP-scoped sink so the per-QP counters are live.
// The context-cache gates cycle more keys than the cache holds, so
// every Touch misses and evicts: the intrusive LRU reuses the victim's
// node, and the per-QP counters, named on first use, are cached.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	bus := pcie.NewBus(eng, pcie.Gen3x8())
	net := wire.NewNetwork(eng, wire.InfiniBand56(), 1)
	n := New(eng, ConnectX3(), bus, net, 0)
	sink := telemetry.New()
	sink.PerQP = true
	n.SetTelemetry(sink)
	done := func(sim.Time) {}

	const keys = 1 << 10 // beyond both context caches
	next := uint64(0)
	cycle := func() uint64 { next = (next + 1) % keys; return next }
	for k := uint64(0); k < 2*keys; k++ { // every key misses and is evicted: warms the per-key maps and counters
		n.TouchSendCtx(k % keys)
		n.TouchRecvCtx(k % keys)
	}
	c := NewContextCache(8)
	for k := uint64(0); k < keys; k++ {
		c.Touch(k)
	}
	hotgate.Check(t, ".", map[string]func(){
		"NIC.Params":             func() { _ = n.Params() },
		"NIC.Bus":                func() { _ = n.Bus() },
		"NIC.Net":                func() { _ = n.Net() },
		"NIC.Node":               func() { _ = n.Node() },
		"NIC.PU":                 func() { n.PU(10*sim.Nanosecond, done); eng.Run() },
		"NIC.WQEBytes":           func() { _ = n.WQEBytes(wire.UD, 32) },
		"NIC.qpCounter":          func() { n.qpCounter(&n.qpSendMiss, "send", "misses", 7).Inc() },
		"NIC.TouchSendCtx":       func() { n.TouchSendCtx(cycle()) },
		"NIC.TouchRecvCtx":       func() { n.TouchRecvCtx(cycle()) },
		"ContextCache.Touch":     func() { c.Touch(cycle()) },
		"ContextCache.unlink":    func() { c.unlink(c.tail); c.pushFront(c.tail) },
		"ContextCache.pushFront": func() { c.Touch(c.nodes[c.tail].key) },
	})
}
