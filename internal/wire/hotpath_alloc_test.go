package wire

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates the fabric's //herd:hotpath functions at
// 0 allocs/op. A packet in flight is a pooled record whose egress,
// propagation and ingress stages are bound once, so after the first
// send every transmission reuses it. The fault hook corrupts every
// other packet so the data path's damaged-delivery branch is measured
// too; a segmented message exercises the multi-packet join.
func TestHotpathAllocFree(t *testing.T) {
	eng, n := newNet()
	flip := false
	n.SetFaultHook(func(src, dst NodeID, now sim.Time) Fate {
		flip = !flip
		if flip {
			return FateCorrupt
		}
		return FateDeliver
	})
	p := InfiniBand56()
	p.MTU = 256
	seg := NewNetwork(eng, p, 1)
	seg.AddNode(0)
	seg.AddNode(1)
	data := func(Delivery) {}
	at := func(sim.Time) {}
	segmented := func() { seg.SendWire(0, 1, 2000, at); seg.SendData(0, 1, UC, 2000, data); eng.Run() }
	roundTrip := func() { n.SendData(0, 1, UD, 64, data); n.Send(1, 2, UC, 64, at); eng.Run() }
	hotgate.Check(t, ".", map[string]func(){
		"Params.Header":             func() { _ = p.Header(DC) },
		"Network.Params":            func() { _ = n.Params() },
		"Network.fate":              func() { _ = n.fate(0, 1) },
		"Network.mustPort":          func() { _ = n.mustPort(2) },
		"Network.SerializationTime": func() { _ = n.SerializationTime(1500) },
		"Network.WireBytes":         func() { _ = n.WireBytes(UD, 64) },
		"Network.Send":              func() { n.Send(0, 1, UC, 64, at); eng.Run() },
		"Network.SendData":          func() { n.SendData(0, 1, UD, 64, data); eng.Run() },
		"Network.SendWire":          func() { n.SendWire(0, 1, 30, at); eng.Run() },
		"Network.sendSegmented":     segmented,
		"Network.sendOne":           roundTrip,
		"packet.propagated":         roundTrip,
		"packet.arrived":            roundTrip,
	})
}
