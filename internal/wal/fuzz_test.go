package wal

import (
	"bytes"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// recordsFrom builds a record list from fuzz bytes: each record takes
// a flags byte (bit 0: DELETE, the rest: epoch), a key byte and a value
// length byte, then that many value bytes (PUTs only).
func recordsFrom(spec []byte) []Record {
	var recs []Record
	for len(spec) >= 3 {
		flags, key, vlen := spec[0], spec[1], min(int(spec[2]), len(spec)-3)
		spec = spec[3:]
		r := Record{Op: OpPut, Key: kv.FromUint64(uint64(key)), Epoch: int(flags >> 1),
			At: sim.Time(len(recs)) * sim.Microsecond}
		if flags&1 == 1 {
			r.Op = OpDelete
		} else {
			r.Value, spec = spec[:vlen], spec[vlen:]
		}
		recs = append(recs, r)
	}
	return recs
}

func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.Key != w.Key || g.Epoch != w.Epoch || g.At != w.At || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// FuzzWALDecode checks the log's framing against arbitrary bytes. Records
// built from the input round-trip exactly. A clean stream followed by an
// arbitrary tail decodes to every clean record first, and anything it
// accepts after them re-encodes to exactly the bytes it came from. One
// flipped bit truncates the stream exactly at the damaged record:
// never a corrupt record accepted, never a clean prefix dropped. Recover
// over a snapshot and a log made of those bytes applies the snapshot's
// clean records, then the log's, and reports the rest as torn.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte("\x00\x01\x05hello\x03\x02\x00\x08\x03\x03abc"), []byte{}, uint32(0))
	f.Add([]byte("\x00\x07\x10sixteen-byte-val"), []byte{0x30, 0x00, 0xff}, uint32(77))
	f.Add([]byte("\x01\x01\x00\x01\x02\x00"), []byte("\x28\x00garbage-tail"), uint32(300))
	f.Add([]byte{}, []byte{0xff, 0xff}, uint32(5))
	f.Fuzz(func(t *testing.T, spec, tail []byte, flip uint32) {
		recs := recordsFrom(spec)
		var clean []byte
		starts := make([]int, len(recs))
		for i, r := range recs {
			starts[i] = len(clean)
			clean = appendRecord(clean, r)
		}
		got, n, torn := decodeAll(clean)
		sameRecords(t, "round trip", got, recs)
		if n != len(clean) || torn != 0 {
			t.Fatalf("clean stream: clean=%d torn=%d, want %d/0", n, torn, len(clean))
		}

		withTail := append(clean[:len(clean):len(clean)], tail...)
		got, n, torn = decodeAll(withTail)
		if n < len(clean) || n+torn != len(withTail) || len(got) < len(recs) {
			t.Fatalf("tail dropped the clean prefix: clean=%d torn=%d of %d (%d clean bytes)", n, torn, len(withTail), len(clean))
		}
		sameRecords(t, "prefix before an arbitrary tail", got[:len(recs)], recs)
		var re []byte
		for _, r := range got {
			re = appendRecord(re, r)
		}
		if !bytes.Equal(re, withTail[:n]) {
			t.Fatal("accepted records do not re-encode to the bytes they were decoded from")
		}

		damaged := bytes.Clone(clean)
		if len(damaged) > 0 {
			pos := int(flip/8) % len(damaged)
			damaged[pos] ^= 1 << (flip % 8)
			hit := len(starts) - 1
			for starts[hit] > pos {
				hit--
			}
			got, n, _ = decodeAll(damaged)
			if n != starts[hit] {
				t.Fatalf("bit flip at byte %d (record %d at %d): clean prefix %d bytes", pos, hit, starts[hit], n)
			}
			sameRecords(t, "prefix before a flipped bit", got, recs[:hit])
		}

		snapRecs, _, _ := decodeAll(withTail)
		logRecs, logClean, logTorn := decodeAll(damaged)
		eng := sim.New()
		l := New(eng, testConfig(), nil)
		l.snapshot, l.durable = withTail, bytes.Clone(damaged)
		l.Crash()
		var applied []Record
		var stats RecoverStats
		l.Recover(func(r Record) { applied = append(applied, r) }, func(s RecoverStats) { stats = s })
		eng.Run()
		sameRecords(t, "replay", applied, append(snapRecs, logRecs...))
		if stats.SnapshotRecords != len(snapRecs) || stats.Records != len(logRecs) ||
			stats.TornBytes != logTorn || l.DurableBytes() != logClean {
			t.Fatalf("recover stats %+v, durable %d B; want %d snapshot + %d log records, %d torn, %d B kept",
				stats, l.DurableBytes(), len(snapRecs), len(logRecs), logTorn, logClean)
		}
	})
}
