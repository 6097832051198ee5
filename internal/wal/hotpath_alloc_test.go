package wal

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates the //herd:hotpath functions on the
// append and group-commit paths at 0 allocs/op. Append's steady state
// is batch-not-full with the group-commit timer already armed: the
// pending and staging buffers keep their capacity across flushes, so
// the measured appends never allocate. A whole group commit — the
// interval timer firing, the flight encoding the batch, the device
// write completing and the batch's acks running — is gated on a second
// log whose engine runs: timers and flights are pooled records with
// their callbacks bound once, and a flight's buffers keep their
// capacity.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.FlushBatch = 1 << 20 // the measurement must never trip a batch flush
	l := New(eng, cfg, nil)
	r := rec(7, "durable-value")
	// Warm: grow pending's capacity past everything the gates append
	// and arm the interval timer (the engine never runs, so it stays
	// armed for the whole measurement).
	for i := 0; i < 512; i++ {
		l.Append(r, nil)
	}
	l.pending, l.stage = l.pending[:0], l.stage[:0]
	buf := make([]byte, 0, 4*encodedLen(len(r.Value)))

	geng := sim.New()
	g := New(geng, testConfig(), nil)
	acked := 0
	onDurable := func() { acked++ }
	commit := func() { // one interval-timer batch and one full batch
		g.Append(r, onDurable)
		geng.Run()
		for i := 0; i < testConfig().FlushBatch; i++ {
			g.Append(r, onDurable)
		}
		geng.Run()
	}
	hotgate.Check(t, ".", map[string]func(){
		"encodedLen":        func() { _ = encodedLen(100) },
		"appendRecord":      func() { buf = appendRecord(buf[:0], r) },
		"Log.Append":        func() { l.Append(r, nil) },
		"Log.armTimer":      func() { l.armTimer() },
		"Log.xfer":          func() { _ = l.xfer(4096) },
		"Log.kick":          commit,
		"Log.startFlush":    commit,
		"Log.commitFlush":   commit,
		"flight.complete":   commit,
		"flushTimer.expire": commit,
	})
	if acked == 0 || g.Pending() != 0 {
		t.Fatalf("acked=%d pending=%d: the group-commit gates did not commit", acked, g.Pending())
	}
}

// TestAppendCopiesValue checks that Append borrows a record's value
// only for the call: the caller overwrites its bytes right after, as a
// HERD server zeroes a request slot once it has responded, and the
// committed record still carries the original value.
func TestAppendCopiesValue(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	slot := []byte("first-value")
	l.Append(Record{Op: OpPut, Key: rec(1, "").Key, Value: slot}, nil)
	for i := range slot {
		slot[i] = 0
	}
	if got := l.RecordsSince(0); len(got) != 1 || string(got[0].Value) != "first-value" {
		t.Fatalf("pending record = %+v, want the value as appended", got)
	}
	eng.Run()
	recs, _, _ := decodeAll(l.durable)
	if len(recs) != 1 || string(recs[0].Value) != "first-value" {
		t.Fatalf("durable records = %+v, want the value as appended", recs)
	}
}
