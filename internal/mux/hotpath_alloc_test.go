package mux

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// gateClient is an allocation-free PoolClient for exercising the
// endpoint without a cluster behind it: it accepts ops up to its
// window and holds their callbacks until drain completes them, so a
// gate can drive submissions through the channel backlog, the pool
// and back out through complete.
type gateClient struct {
	window  int
	pending []func(kv.Result)
}

func (g *gateClient) accept(cb func(kv.Result)) error {
	g.pending = append(g.pending, cb)
	return nil
}

func (g *gateClient) Get(_ kv.Key, cb func(kv.Result)) error           { return g.accept(cb) }
func (g *gateClient) Put(_ kv.Key, _ []byte, cb func(kv.Result)) error { return g.accept(cb) }
func (g *gateClient) Delete(_ kv.Key, cb func(kv.Result)) error        { return g.accept(cb) }
func (g *gateClient) Inflight() int                                    { return len(g.pending) }
func (g *gateClient) Issued() uint64                                   { return 0 }
func (g *gateClient) Completed() uint64                                { return 0 }
func (g *gateClient) Failed() uint64                                   { return 0 }
func (g *gateClient) Window() int                                      { return g.window }

// drain completes every accepted op in acceptance order, including any
// the completions re-pump into the client.
func (g *gateClient) drain() {
	for len(g.pending) > 0 {
		cb := g.pending[0]
		copy(g.pending, g.pending[1:])
		g.pending[len(g.pending)-1] = nil
		g.pending = g.pending[:len(g.pending)-1]
		cb(kv.Result{Status: kv.StatusHit})
	}
}

// TestHotpathAllocFree gates the endpoint's //herd:hotpath functions
// at 0 allocs/op: a channel's Get, Put and Delete from submission
// through the backlog ring, the round-robin pump, the pooled client
// and back out through complete. Each gate submits more ops than the
// channel window admits, so some wait in the backlog and issue from a
// completion's re-pump. Entries come from the endpoint's pool with
// their completion bound once, and the backlog is a ring, so once both
// have warmed a submission allocates nothing.
func TestHotpathAllocFree(t *testing.T) {
	cli := &gateClient{window: 2}
	ep := &Endpoint{
		cfg:  Config{QPs: 2, ChannelWindow: 2},
		eng:  sim.New(),
		pool: []PoolClient{cli, &gateClient{window: 0}},
	}
	ch, err := ep.OpenChannel()
	if err != nil {
		t.Fatal(err)
	}
	key, val := kv.FromUint64(5), []byte("muxed value")
	served := 0
	cb := func(r kv.Result) {
		if r.Err == nil {
			served++
		}
	}
	burst := func() {
		for i := 0; i < 3; i++ {
			_ = ch.Get(key, cb)
			_ = ch.Put(key, val, cb)
			_ = ch.Delete(key, cb)
		}
		cli.drain()
	}
	hotgate.Check(t, ".", map[string]func(){
		"Channel.Get":           burst,
		"Channel.Put":           burst,
		"Channel.Delete":        burst,
		"Endpoint.submit":       burst,
		"Endpoint.pump":         burst,
		"Endpoint.issue":        burst,
		"Endpoint.complete":     burst,
		"Endpoint.getOp":        burst,
		"Endpoint.putOp":        burst,
		"Endpoint.now":          burst,
		"chanOp.complete":       burst,
		"Endpoint.poolWithRoom": func() { _ = ep.poolWithRoom() },
		"opKind.kindName":       func() { _ = opPut.kindName() },
	})
	if served == 0 || ch.Inflight() != 0 || ch.Queued() != 0 {
		t.Fatalf("served=%d inflight=%d queued=%d: the gates did not drive ops to completion",
			served, ch.Inflight(), ch.Queued())
	}
}
