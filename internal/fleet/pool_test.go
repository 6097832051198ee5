package fleet

import (
	"bytes"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// TestRoundReuseFromCallback pins the round pool's lifetime rule: a
// round retires only after its callback has run. The callback here
// immediately issues two more operations on the same client — a PUT
// that overwrites the key it just read and a GET of another key — so
// the pool hands out rounds while the first is still finishing. The
// first callback must run exactly once and see its own result intact,
// and the operations it issued must see theirs.
func TestRoundReuseFromCallback(t *testing.T) {
	for _, mode := range replicationModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Versioned = mode.versioned
			cl, _, clients := newFleetCfg(t, cfg, 3, 1, 17)
			c := clients[0]
			a, b := kv.FromUint64(21), kv.FromUint64(22)
			for _, kvp := range []struct {
				key kv.Key
				val string
			}{{a, "value-a"}, {b, "value-b"}} {
				if err := c.Put(kvp.key, []byte(kvp.val), nil); err != nil {
					t.Fatal(err)
				}
			}
			cl.Eng.Run()

			var first, second, third []kv.Result
			err := c.Get(a, func(r kv.Result) {
				if err := c.Put(a, []byte("overwritten-a"), func(r kv.Result) { second = append(second, r) }); err != nil {
					t.Error(err)
				}
				if err := c.Get(b, func(r kv.Result) { third = append(third, r) }); err != nil {
					t.Error(err)
				}
				first = append(first, r)
			})
			if err != nil {
				t.Fatal(err)
			}
			cl.Eng.Run()

			if len(first) != 1 || len(second) != 1 || len(third) != 1 {
				t.Fatalf("callbacks ran %d/%d/%d times, want once each", len(first), len(second), len(third))
			}
			if r := first[0]; r.Err != nil || r.Key != a || !r.IsGet || r.Status != kv.StatusHit || string(r.Value) != "value-a" {
				t.Fatalf("first GET = %+v (value %q), want a hit on %q", r, r.Value, "value-a")
			}
			if r := second[0]; r.Err != nil || r.Key != a || r.IsGet {
				t.Fatalf("PUT from the callback = %+v", r)
			}
			if r := third[0]; r.Err != nil || r.Key != b || r.Status != kv.StatusHit || string(r.Value) != "value-b" {
				t.Fatalf("GET from the callback = %+v (value %q), want a hit on %q", r, r.Value, "value-b")
			}
			if c.Inflight() != 0 || len(c.roundFree) > 3 {
				t.Fatalf("inflight=%d pooled rounds=%d after quiescence", c.Inflight(), len(c.roundFree))
			}
		})
	}
}

// TestVersionedGetValueSurvivesRepair pins the read round's Value
// contract: a versioned GET answers with the payload inside the
// winning replica's reply and back-fills the stale replica with that
// same reply. The caller owns the Value it receives: neither the
// repair it triggered nor later traffic through the recycled round may
// change what it holds.
func TestVersionedGetValueSurvivesRepair(t *testing.T) {
	cl, d, clients := newVersionedFleet(t, 3, 1, 31)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	fresh := stampedValue(int64(sim.Millisecond), 1, "fresh")
	c.Put(key, []byte("orig"), nil)
	cl.Eng.Run()
	// Shard 0 alone advances to a newer version.
	if err := d.Server(0).Preload(key, fresh); err != nil {
		t.Fatal(err)
	}

	var got kv.Result
	var seen string
	c.Get(key, func(r kv.Result) { got, seen = r, string(r.Value) })
	cl.Eng.Run()
	if seen != "fresh" || got.Status != kv.StatusHit {
		t.Fatalf("GET = %+v (value %q), want the newest version", got, seen)
	}
	if c.RepairsApplied() == 0 {
		t.Fatal("no read repair applied")
	}
	// More rounds through the same client, reusing the pooled round.
	for i := uint64(0); i < 8; i++ {
		c.Put(kv.FromUint64(500+i), []byte("churn-churn-churn"), nil)
	}
	cl.Eng.Run()
	if string(got.Value) != "fresh" {
		t.Fatalf("returned Value changed to %q after the repair and later rounds", got.Value)
	}
	stored, ok := d.Server(1).Partition(mica.Partition(key, d.cfg.Herd.NS)).Get(key)
	if !ok || !bytes.Equal(stored, fresh) {
		t.Fatalf("replica 1 not back-filled with the winner's bytes: ok=%v stored=%x", ok, stored)
	}
}
