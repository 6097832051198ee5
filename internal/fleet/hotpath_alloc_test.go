package fleet

import (
	"bytes"
	"testing"

	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/mux"
	"herdkv/internal/nearcache"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates the fleet's //herd:hotpath functions at
// 0 allocs/op. The request-path gates are whole fleet operations —
// submit, then run the engine until every replica has answered and the
// round has finished — on warm 2-shard fleets: a versioned one (R=W=N)
// and an unversioned one with hot-key widening. GETs ask for a key no
// replica holds, so the member clients copy no value (a hit's
// Result.Value copy is the one allocation a fleet GET keeps; see
// TestFleetRequestPathAllocs). Rounds and their sub-op slots come from
// the client's pool, and a ring replica set is a precomputed view, so
// once warm a round allocates nothing.
func TestHotpathAllocFree(t *testing.T) {
	vcfg := testConfig()
	vcfg.Versioned = true
	vcl, _, vclients := newFleetCfg(t, vcfg, 2, 1, 7)
	ucfg := testConfig()
	ucfg.HotKeyTrack, ucfg.HotKeyThreshold, ucfg.HotKeyWindow = 8, 2, sim.Millisecond
	ucl, ud, uclients := newFleetCfg(t, ucfg, 2, 1, 7)
	vc, uc := vclients[0], uclients[0]

	// absent is never written; a versioned delete of gone stores a
	// tombstone, so GETs use absent.
	key, absent, gone := kv.FromUint64(11), kv.FromUint64(12), kv.FromUint64(13)
	val := []byte("fleet hot-path value")
	served := 0
	cb := func(r kv.Result) {
		if r.Err == nil {
			served++
		}
	}
	vPut := func() { _ = vc.Put(key, val, cb); vcl.Eng.Run() }
	vGet := func() { _ = vc.Get(absent, cb); vcl.Eng.Run() }
	vDelete := func() { _ = vc.Delete(gone, cb); vcl.Eng.Run() }
	uGet := func() { _ = uc.Get(absent, cb); ucl.Eng.Run() }
	uDelete := func() { _ = uc.Delete(absent, cb); ucl.Eng.Run() }
	order := make([]int, 0, 2)
	readOrder := func() { _ = uc.readOrder(append(order[:0], ud.Replicas(key)...)) }

	hotgate.Check(t, ".", map[string]func(){
		"Client.Get":             uGet,
		"Client.readOrder":       uGet,
		"Client.readsBefore":     readOrder,
		"Client.readPreferred":   uGet,
		"Client.noteReadIssue":   uGet,
		"Client.widen":           uGet,
		"reverse":                uGet,
		"hotEntry.count":         uGet,
		"hotTracker.rotate":      uGet,
		"hotTracker.observe":     uGet,
		"hotTracker.isHot":       uGet,
		"hotTracker.hotKeys":     uGet,
		"Client.Delete":          uDelete,
		"Client.Put":             vPut,
		"Client.write":           vPut,
		"Client.getRound":        vPut,
		"Client.run":             vPut,
		"Client.now":             vPut,
		"Client.noteServed":      vPut,
		"Client.noteFloor":       vPut,
		"round.issue":            vPut,
		"round.resolve":          vPut,
		"round.finish":           vPut,
		"round.ack":              vDelete,
		"round.release":          vPut,
		"subOp.resolve":          vPut,
		"Deployment.Replicas":    vPut,
		"Deployment.Replication": vPut,
		"Ring.Replicas":          vPut,
		"Ring.Size":              vPut,
		"round.read":             vGet,
		"reply.version":          vGet,
		"Client.markSuspect":     func() { uc.markSuspect(0) },
		"Client.noteBusy":        func() { uc.noteBusy(1) },
		"Client.repaired":        func() { vc.repaired(kv.Result{}) },
	})
	if served == 0 || vc.Inflight() != 0 || uc.Inflight() != 0 {
		t.Fatalf("served=%d inflight=%d/%d: the gates did not drive rounds to completion",
			served, vc.Inflight(), uc.Inflight())
	}
	if uc.HotWidened() == 0 {
		t.Fatal("no read was widened: the widening gates did not rotate an order")
	}
}

// TestFleetRequestPathAllocs gates a whole fleet request, end to end,
// on the beyond-paper stack: a leased near cache over a warm,
// versioned R=2 fleet whose member clients ride mux endpoints, on
// servers that grant leases and log every write with group commit. A
// GET that misses the near cache runs a versioned read round over both
// replicas and fills the cache; a PUT writes through, invalidating,
// and commits on both replicas' logs. Each is measured from submit to
// its callback with the engine run to quiescence. Every stage in
// between runs on a pooled record, so the only allocations left are
// the GET's per-replica Result.Value copies the member clients hand
// the round.
func TestFleetRequestPathAllocs(t *testing.T) {
	const replicas = 2
	cfg := testConfig()
	cfg.Versioned = true
	cfg.Replication = replicas
	cfg.Mux = &mux.Config{QPs: 2}
	cfg.Herd.Durability = core.DurabilityGroupCommit
	cfg.Herd.LeaseTTL = 25 * sim.Microsecond
	cl, _, clients := newFleetCfg(t, cfg, 2, 1, 3)
	// Capacity 4 under 8 keys read round-robin: every GET misses the
	// near cache and every fill evicts an entry.
	nc := nearcache.New(clients[0], cl.Eng, nil, nearcache.Config{
		TTL: 25 * sim.Microsecond, Leases: true, Capacity: 4,
	})
	keys := make([]kv.Key, 8)
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(100 + i))
	}
	val := []byte("a value on the fleet request path")
	var got kv.Result
	cb := func(r kv.Result) { got = r }
	nextGet, nextPut := 0, 0
	get := func() {
		_ = nc.Get(keys[nextGet%len(keys)], cb)
		nextGet++
		cl.Eng.Run()
	}
	put := func() {
		_ = nc.Put(keys[nextPut%len(keys)], val, cb)
		nextPut++
		cl.Eng.Run()
	}
	for i := 0; i < 64; i++ { // store every key; warm every pool, queue, ring and log buffer
		put()
		get()
	}
	fetched := clients[0].Issued()
	getAllocs := testing.AllocsPerRun(200, get)
	if fetched = clients[0].Issued() - fetched; fetched != 201 {
		t.Fatalf("%d of 201 GETs reached the fleet, want every one to miss the near cache", fetched)
	}
	if got.Err != nil || got.Status != kv.StatusHit || !bytes.Equal(got.Value, val) {
		t.Fatalf("GET = %+v, want a hit on %q", got, val)
	}
	putAllocs := testing.AllocsPerRun(200, put)
	if got.Err != nil {
		t.Fatalf("PUT = %+v, want success", got)
	}
	t.Logf("near-cache-miss GET %.1f allocs/op, PUT %.1f allocs/op", getAllocs, putAllocs)
	if getAllocs > replicas {
		t.Errorf("GET allocates %.1f per op, want at most %d (one Result.Value copy per replica)", getAllocs, replicas)
	}
	if putAllocs != 0 {
		t.Errorf("PUT allocates %.1f per op, want 0", putAllocs)
	}
}
