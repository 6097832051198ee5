package core

import (
	"bytes"
	"fmt"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/wal"
)

func durableConfig(mode Durability) Config {
	cfg := smallConfig()
	cfg.Durability = mode
	return cfg
}

// lookup reads a key straight from the owning partition (no network).
func lookup(s *Server, key kv.Key) ([]byte, bool) {
	return s.Partition(mica.Partition(key, s.Config().NS)).Get(key)
}

// TestPreloadWritesThroughWAL is the satellite regression: preloaded
// state must be durable from instant zero, or a crash before the first
// flush replays the log to a pre-preload view.
func TestPreloadWritesThroughWAL(t *testing.T) {
	cl, srv, _ := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	key := kv.FromUint64(7)
	if err := srv.Preload(key, []byte("preloaded")); err != nil {
		t.Fatal(err)
	}
	// Crash before any flush interval could elapse: t is still 0.
	srv.Crash()
	if _, ok := lookup(srv, key); ok {
		t.Fatal("partitions survived the crash")
	}
	srv.Restart()
	cl.Eng.Run()
	if v, ok := lookup(srv, key); !ok || !bytes.Equal(v, []byte("preloaded")) {
		t.Fatalf("after warm restart: value=%q ok=%v, want the preloaded value", v, ok)
	}
	if !srv.LastRecovery().Warm {
		t.Fatal("restart was not warm")
	}
}

// TestPreloadDeleteWritesThroughWAL: the delete half of the same
// regression — a logged preload-delete must not be resurrected by
// replaying the earlier preload-put.
func TestPreloadDeleteWritesThroughWAL(t *testing.T) {
	cl, srv, _ := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	key := kv.FromUint64(7)
	if err := srv.Preload(key, []byte("preloaded")); err != nil {
		t.Fatal(err)
	}
	if !srv.PreloadDelete(key) {
		t.Fatal("PreloadDelete missed a present key")
	}
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	if _, ok := lookup(srv, key); ok {
		t.Fatal("replay resurrected a deleted key")
	}
}

func TestCrashWipesPartitionsWithoutDurability(t *testing.T) {
	_, srv, _ := newHERD(t, smallConfig(), 1)
	key := kv.FromUint64(3)
	if err := srv.Preload(key, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	srv.Restart()
	if srv.Down() {
		t.Fatal("cold restart should be immediate")
	}
	if _, ok := lookup(srv, key); ok {
		t.Fatal("DRAM partitions survived a crash with durability off")
	}
	if rec := srv.LastRecovery(); rec.Warm || rec.Duration != 0 {
		t.Fatalf("cold restart recorded as %+v", rec)
	}
}

// TestSyncHoldsAckUntilDurable: with DurabilitySync a PUT's response
// waits for its log record's group commit, so the persist latency is
// visible in the client's measured op latency.
func TestSyncHoldsAckUntilDurable(t *testing.T) {
	const persist = 20 * sim.Microsecond
	latency := func(mode Durability) sim.Time {
		cfg := durableConfig(mode)
		cfg.WAL = wal.Config{PersistLatency: persist}
		cl, srv, clients := newHERD(t, cfg, 1)
		var res Result
		clients[0].Put(kv.FromUint64(1), []byte("v"), func(r Result) { res = r })
		cl.Eng.Run()
		if res.Status != kv.StatusHit {
			t.Fatalf("PUT under mode %d failed: %+v", mode, res)
		}
		if srv.WAL().Appends() == 0 {
			t.Fatalf("mode %d logged nothing", mode)
		}
		return res.Latency
	}
	syncLat := latency(DurabilitySync)
	gcLat := latency(DurabilityGroupCommit)
	if syncLat < persist {
		t.Fatalf("sync PUT latency %v does not cover the %v persist", syncLat, persist)
	}
	if gcLat >= persist {
		t.Fatalf("group-commit PUT latency %v waited for the persist", gcLat)
	}
}

// TestWarmRestartReplaysClientWrites drives real client PUTs, crashes
// after they are durable, and checks the warm restart replays them and
// keeps the epoch monotonic.
func TestWarmRestartReplaysClientWrites(t *testing.T) {
	cl, srv, clients := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	c := clients[0]
	const n = 16
	for i := uint64(0); i < n; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*2*sim.Microsecond, func() {
			c.Put(kv.FromUint64(i), []byte{byte(i)}, func(Result) {})
		})
	}
	cl.Eng.Run() // all writes served and group-committed
	srv.Crash()
	srv.Restart()
	if !srv.Recovering() {
		t.Fatal("warm restart did not enter recovery")
	}
	if !srv.Down() {
		t.Fatal("server accepted requests mid-replay")
	}
	cl.Eng.Run()
	rec := srv.LastRecovery()
	if !rec.Warm || rec.Duration <= 0 {
		t.Fatalf("recovery = %+v, want a warm one with a real outage", rec)
	}
	if got := srv.WAL().Replayed(); got < n {
		t.Fatalf("replayed %d records, want >= %d", got, n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := lookup(srv, kv.FromUint64(i)); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key %d after replay: value=%v ok=%v", i, v, ok)
		}
	}
}

// TestCrashMidFlushTruncatesTornTail: a flushcrash-style CrashMidFlush
// leaves a torn tail that the warm restart truncates — replay applies
// only clean records, never a damaged one.
func TestCrashMidFlushTruncatesTornTail(t *testing.T) {
	cl, srv, clients := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	c := clients[0]
	for i := uint64(0); i < 8; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*sim.Microsecond, func() {
			c.Put(kv.FromUint64(i), []byte{byte(i)}, func(Result) {})
		})
	}
	// Crash while late writes are still pending in the WAL (before the
	// 5us default flush interval catches the tail).
	cl.Eng.At(9*sim.Microsecond, func() { srv.CrashMidFlush() })
	cl.Eng.Run()
	srv.Restart()
	cl.Eng.Run()
	rec := srv.LastRecovery()
	if !rec.Warm {
		t.Fatal("restart was not warm")
	}
	if rec.TornBytes == 0 {
		t.Fatal("mid-flush crash left no torn tail")
	}
	// Every surviving key must carry its exact written value: a torn
	// record is dropped whole, never applied damaged.
	for i := uint64(0); i < 8; i++ {
		if v, ok := lookup(srv, kv.FromUint64(i)); ok && !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key %d replayed damaged value %v", i, v)
		}
	}
}

func TestRecoveryHookFires(t *testing.T) {
	cl, srv, _ := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	if err := srv.Preload(kv.FromUint64(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var got []RecoveryInfo
	srv.SetRecoveryHook(func(info RecoveryInfo) { got = append(got, info) })
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	if len(got) != 1 || !got[0].Warm {
		t.Fatalf("recovery hook calls = %+v, want one warm recovery", got)
	}
}

// TestLargePreloadKeepsGroupCommitWindow preloads about four times
// SnapshotEvery, drives group-commit PUTs and crashes the server. The
// preload must not hold the log's group commits behind a full-state
// snapshot: every PUT acked longer than the commit window before the
// crash survives the warm restart, and the restart's catch-up bound
// (RecoveryInfo.Since) moves up to the crash instead of staying at the
// preload instant.
func TestLargePreloadKeepsGroupCommitWindow(t *testing.T) {
	const (
		preloadKeys = 8 << 10
		preloadLen  = 512 // ~4.5 MB of log against the default 1 MiB SnapshotEvery
		crashAt     = 1 * sim.Millisecond
		// window bounds a group-commit record's time to durable: the
		// 5us flush interval, one batch's device time and one snapshot
		// chunk, with margin.
		window = 50 * sim.Microsecond
	)
	cfg := chaosConfig()
	cfg.Durability = DurabilityGroupCommit
	cfg.Mica = mica.Config{IndexBuckets: 1 << 11, BucketSlots: 8, LogBytes: 4 << 20}
	cl, srv, clients := newHERD(t, cfg, 1)
	val := bytes.Repeat([]byte{'p'}, preloadLen)
	for i := uint64(0); i < preloadKeys; i++ {
		if err := srv.Preload(kv.FromUint64(i), val); err != nil {
			t.Fatal(err)
		}
	}

	type ack struct {
		key kv.Key
		val []byte
		at  sim.Time
	}
	var acks []ack
	c, next := clients[0], uint64(preloadKeys)
	var put func()
	put = func() {
		if cl.Eng.Now() >= crashAt {
			return
		}
		key, v := kv.FromUint64(next), []byte(fmt.Sprintf("put-%d", next))
		next++
		c.Put(key, v, func(r Result) {
			if r.Status == kv.StatusHit && cl.Eng.Now() < crashAt {
				acks = append(acks, ack{key, v, cl.Eng.Now()})
			}
			put()
		})
	}
	for i := 0; i < cfg.Window; i++ {
		put()
	}
	cl.Eng.At(crashAt, func() {
		srv.Crash()
		srv.Restart()
	})
	cl.Eng.Run()

	old, lost := 0, 0
	for _, a := range acks {
		if a.at >= crashAt-window {
			continue // inside the group-commit window: allowed to die
		}
		old++
		if v, ok := lookup(srv, a.key); !ok || !bytes.Equal(v, a.val) {
			lost++
		}
	}
	if old < 100 {
		t.Fatalf("only %d PUTs acked before the window; the test drove too little load", old)
	}
	if lost > 0 {
		t.Errorf("crash lost %d of %d PUTs acked more than %.0fus before it", lost, old, sim.Time(window).Microseconds())
	}
	rec := srv.LastRecovery()
	if !rec.Warm || rec.Since < crashAt-window {
		t.Errorf("recovery %+v: Since %.1fus, want a warm restart with Since within %.0fus of the crash at %.0fus",
			rec, rec.Since.Microseconds(), sim.Time(window).Microseconds(), sim.Time(crashAt).Microseconds())
	}
	for i := uint64(0); i < preloadKeys; i += preloadKeys / 8 {
		if v, ok := lookup(srv, kv.FromUint64(i)); !ok || !bytes.Equal(v, val) {
			t.Fatalf("preloaded key %d lost by the crash", i)
		}
	}
}
