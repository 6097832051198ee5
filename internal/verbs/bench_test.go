package verbs

import (
	"testing"

	"herdkv/internal/wire"
)

// BenchmarkVerbsWriteSend measures the verb pipeline on HERD's request
// and response verbs: one op is an inlined UC WRITE from a to b plus an
// inlined UD SEND from b back to a (with its RECV reposted), each run
// through PIO, NIC processing, the wire and the DMA landing. ns/op is
// host time per round trip; allocs/op is 0 once the pools have warmed.
func BenchmarkVerbsWriteSend(b *testing.B) {
	tb := newTestbed()
	uc, _ := connectedPair(tb, wire.UC)
	uda, udb := tb.a.CreateQP(wire.UD), tb.b.CreateQP(wire.UD)
	region, resp := tb.b.RegisterMR(4096), tb.a.RegisterMR(4096)
	uda.RecvCQ().SetHandler(func(Completion) {})
	req, reply := make([]byte, 32), make([]byte, 40)
	op := func() {
		_ = uda.PostRecv(resp, 0, 1024, 0)
		_ = uc.PostSend(SendWR{Verb: WRITE, Data: req, Remote: region, RemoteOff: 64, Inline: true})
		_ = udb.PostSend(SendWR{Verb: SEND, Data: reply, Dest: uda, Inline: true})
		tb.eng.Run()
	}
	op() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
