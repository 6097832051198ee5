// Package wal is a deterministic, sim-clock-driven write-ahead log for
// a HERD shard: an append-only record stream (Put/Delete with key,
// value and shard epoch) persisted by batched group commit, plus a
// periodic snapshot that compacts the log. It converts the volatile
// MICA partitions into a recoverable store — a crashed shard replays
// snapshot + log tail and rejoins warm instead of cold.
//
// The persist device is modeled the way internal/pcie models DMA: a
// sim.Server resource with a fixed persist latency plus a bandwidth
// term, so flush timing (and therefore sync-mode ack latency) is part
// of the discrete-event simulation and replays byte-identically for a
// given history. The batched group-commit design follows the
// write-optimized NVM log in PAPERS.md: appends buffer in (volatile)
// memory and one device write persists the whole batch when the flush
// interval elapses or the batch threshold fills.
//
// Records are checksummed and length-framed, so a crash that lands
// mid-flush leaves a torn tail the next recovery detects and
// truncates — acknowledged-before-durable writes die with the tail
// (the group-commit window), but replay never applies a damaged
// record. See docs/DURABILITY.md.
package wal

import (
	"encoding/binary"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// Op is a logged mutation kind.
type Op byte

// Logged operations.
const (
	OpPut    Op = 1
	OpDelete Op = 2
)

// Record is one logged mutation. At is the virtual append instant;
// Epoch is the shard's crash epoch when the record was appended, so a
// recovering server can restore epoch monotonicity from its log.
type Record struct {
	Op    Op
	Key   kv.Key
	Value []byte
	Epoch int
	At    sim.Time
}

// Record framing:
//
//	[u16 payload length][u8 op][u32 epoch][u64 at][16B key][u16 vlen][value][u32 checksum]
//
// The leading length frames the stream; the trailing checksum (over
// everything after the length) is how replay detects a torn tail: a
// record whose frame runs past the persisted bytes, or whose checksum
// mismatches, truncates the log there.
const (
	recFixed = 1 + 4 + 8 + kv.KeySize + 2 // op + epoch + at + key + vlen
	recSum   = 4
)

// encodedLen returns the full framed size of a record with a vlen-byte
// value.
//
//herd:hotpath
func encodedLen(vlen int) int { return 2 + recFixed + vlen + recSum }

// appendRecord encodes r onto buf. It allocates only when buf's
// capacity runs out, so flush loops reusing a grown buffer are
// allocation-free.
//
//herd:hotpath
func appendRecord(buf []byte, r Record) []byte {
	payload := recFixed + len(r.Value) + recSum
	var hdr [2 + recFixed]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(payload))
	hdr[2] = byte(r.Op)
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(r.Epoch))
	binary.LittleEndian.PutUint64(hdr[7:15], uint64(r.At))
	copy(hdr[15:31], r.Key[:])
	binary.LittleEndian.PutUint16(hdr[31:33], uint16(len(r.Value)))
	start := len(buf)
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Value...)
	sum := uint32(kv.Checksum64(buf[start+2:]))
	var s [recSum]byte
	binary.LittleEndian.PutUint32(s[:], sum)
	return append(buf, s[:]...)
}

// decodeAll walks an encoded stream and returns the records of its
// longest clean prefix, that prefix's byte length, and how many
// trailing bytes were torn (framed wrong, cut short, or failing the
// checksum).
func decodeAll(buf []byte) (recs []Record, clean int, torn int) {
	off := 0
	for off+2 <= len(buf) {
		payload := int(binary.LittleEndian.Uint16(buf[off : off+2]))
		end := off + 2 + payload
		if payload < recFixed+recSum || end > len(buf) {
			break
		}
		body := buf[off+2 : end-recSum]
		sum := binary.LittleEndian.Uint32(buf[end-recSum : end])
		if uint32(kv.Checksum64(body)) != sum {
			break
		}
		vlen := int(binary.LittleEndian.Uint16(body[recFixed-2 : recFixed]))
		if vlen != payload-recFixed-recSum {
			break
		}
		var r Record
		r.Op = Op(body[0])
		r.Epoch = int(binary.LittleEndian.Uint32(body[1:5]))
		r.At = sim.Time(binary.LittleEndian.Uint64(body[5:13]))
		copy(r.Key[:], body[13:13+kv.KeySize])
		if vlen > 0 {
			r.Value = append([]byte(nil), body[recFixed:recFixed+vlen]...)
		}
		recs = append(recs, r)
		off = end
	}
	return recs, off, len(buf) - off
}

// snapshotChunk is the size of one compaction device write. A
// compaction image goes to the device chunk by chunk, each submitted
// when the previous one lands, so a group commit queues behind at most
// one chunk instead of the whole image.
const snapshotChunk = 16 << 10

// Config parameterizes the log's group commit and persist device.
// Zero values take the defaults below (an NVM-class device).
type Config struct {
	// FlushInterval is the group-commit window: a pending append is
	// persisted at most this long after it buffers (default 5us).
	FlushInterval sim.Time
	// FlushBatch persists early once this many records are pending
	// (default 64).
	FlushBatch int
	// PersistLatency is the fixed per-flush device latency — the NVM
	// write-and-fence cost paid once per group commit (default 1us).
	PersistLatency sim.Time
	// BytesPerSec is the device's sequential write (and recovery read)
	// bandwidth (default 2 GB/s).
	BytesPerSec float64
	// SnapshotEvery is the floor of the compaction trigger: the log
	// compacts once its tail has grown by this many bytes and by the
	// current snapshot's size, whichever is larger (default 1 MiB;
	// negative disables).
	SnapshotEvery int
	// ReplayApply is the CPU cost of re-applying one record into the
	// MICA partitions during recovery (default 20ns).
	ReplayApply sim.Time
}

func (c Config) withDefaults() Config {
	if c.FlushInterval <= 0 {
		c.FlushInterval = 5 * sim.Microsecond
	}
	if c.FlushBatch <= 0 {
		c.FlushBatch = 64
	}
	if c.PersistLatency <= 0 {
		c.PersistLatency = 1 * sim.Microsecond
	}
	if c.BytesPerSec <= 0 {
		c.BytesPerSec = 2e9
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1 << 20
	}
	if c.ReplayApply <= 0 {
		c.ReplayApply = 20 * sim.Nanosecond
	}
	return c
}

// pendingRec is one buffered append awaiting group commit. rec.Value
// points into the log's staging buffer, not at the caller's bytes.
type pendingRec struct {
	rec       Record
	onDurable func()
}

// flight is one device write in progress. Flights are pooled per log
// with their completion bound once, and keep their buffers' capacity
// across batches. A flight returns to the pool when its device write
// completes, also when a crash made that completion stale — so a
// flight is never reused while its completion is still scheduled.
type flight struct {
	l       *Log
	gen     int // the log's crash generation when the write started
	buf     []byte
	cbs     []func()
	start   sim.Time // when the device begins the write (it may queue behind a snapshot chunk)
	dur     sim.Time
	firstAt sim.Time // append instant of the batch's oldest record
	lastAt  sim.Time // append instant of the batch's final record
	done    func(sim.Time)
}

// flushTimer is one armed group-commit interval timer. Timers are
// pooled per log with their callback bound once and return to the pool
// when they fire; gen is the crash generation they were armed under.
type flushTimer struct {
	l    *Log
	gen  int
	fire func()
}

// RecoverStats summarizes one completed replay.
type RecoverStats struct {
	// Records is how many log-tail records were applied.
	Records int
	// SnapshotRecords is how many snapshot entries were applied first.
	SnapshotRecords int
	// TornBytes is how much torn tail this recovery truncated.
	TornBytes int
	// MaxEpoch is the largest epoch seen across applied records (-1
	// when the log was empty).
	MaxEpoch int
	// Since is the instant from which the log may be missing records:
	// the last durable record's append time minus a group-commit
	// guard. A replica-delta catch-up from this instant covers every
	// write the torn/unflushed tail lost.
	Since sim.Time
}

// Log is one shard's write-ahead log. Like every model component it is
// single-goroutine, driven entirely by the sim clock.
type Log struct {
	clk sim.Clock
	cfg Config
	dev *sim.Server

	pending    []pendingRec
	stage      []byte // pending records' values, copied at Append; reused across batches
	durable    []byte
	snapshot   []byte
	snapBase   int // len(durable) right after the last compaction
	lastDurAt  sim.Time
	inflight   *flight
	timerArmed bool
	flushDue   bool // interval elapsed while the device was busy
	maxEpoch   int
	source     func(emit func(key kv.Key, value []byte))

	// The compaction in progress: its image, how many of its bytes the
	// device has been handed, and the instant the live state was walked.
	// snapWait holds the next chunk back until the flush in flight
	// commits.
	snapInProg bool
	snapWait   bool
	snapBuf    []byte
	snapSent   int
	snapAt     sim.Time

	// gen cancels scheduled completions across a crash: timers and
	// device callbacks captured under an older generation are dead.
	gen     int
	crashed bool

	flightFree []*flight
	timerFree  []*flushTimer

	appends, flushes, replayed uint64
	flushedBytes, tornBytes    uint64
	snapshotBytes, snapshots   uint64

	telAppends, telFlushes   *telemetry.Counter
	telReplayed, telSnapshot *telemetry.Counter
	telTorn                  *telemetry.Counter
	telLag                   *telemetry.Histogram
}

// New returns an empty log on eng. tel may be nil.
func New(eng *sim.Engine, cfg Config, tel *telemetry.Sink) *Log {
	l := &Log{clk: eng, cfg: cfg.withDefaults(), maxEpoch: -1}
	l.dev = sim.NewServer(eng, 1)
	l.telAppends = tel.Counter("wal.appends")
	l.telFlushes = tel.Counter("wal.flushes")
	l.telReplayed = tel.Counter("wal.replayed")
	l.telSnapshot = tel.Counter("wal.snapshot.bytes")
	l.telTorn = tel.Counter("wal.torn.bytes")
	l.telLag = tel.Histogram("wal.lag")
	return l
}

// SetSnapshotSource registers the live-state walker snapshot
// compaction captures — in practice a loop over the shard's
// mica.Cache.Range partitions. Without a source, compaction is off.
func (l *Log) SetSnapshotSource(fn func(emit func(key kv.Key, value []byte))) {
	l.source = fn
}

// xfer returns the device time for n sequential bytes.
//
//herd:hotpath
func (l *Log) xfer(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / l.cfg.BytesPerSec * float64(sim.Second))
}

// Append buffers one record for the next group commit. onDurable, if
// non-nil, runs when the record's batch has persisted — the log-
// before-ack hook for sync durability. Appends on a crashed log are
// dropped (the process is dead; nothing should be calling). The log
// borrows r.Value only for the call: it copies the bytes into its own
// staging buffer, so the caller may reuse them as soon as Append
// returns. The steady-state path (batch not yet full, timer already
// armed) is allocation-free: the pending and staging buffers keep
// their capacity across flushes.
//
//herd:hotpath
func (l *Log) Append(r Record, onDurable func()) {
	if l.crashed {
		return
	}
	r.At = l.clk.Now()
	if r.Epoch > l.maxEpoch {
		l.maxEpoch = r.Epoch
	}
	if len(r.Value) > 0 {
		start := len(l.stage)
		l.stage = append(l.stage, r.Value...)
		r.Value = l.stage[start:len(l.stage):len(l.stage)]
	}
	l.appends++
	l.telAppends.Inc()
	l.pending = append(l.pending, pendingRec{rec: r, onDurable: onDurable})
	if len(l.pending) >= l.cfg.FlushBatch {
		l.kick()
		return
	}
	l.armTimer()
}

// AppendDurable logs one record as immediately durable, bypassing
// group commit and the persist device. This is the control-plane path
// for Server.Preload: preloaded state models data loaded before the
// run starts, so it must be in the log from instant zero — otherwise a
// crash before the first flush would replay to a pre-preload view.
//
// Before the clock first advances the log has no tail, and the record
// joins the initial snapshot: a preload is the image the log starts
// from, not growth the first compaction must rewrite. Replay applies
// the snapshot first, so replay order is unchanged. Every later record
// (fleet catch-up, migration) goes to the tail, where RecordsSince sees
// it.
func (l *Log) AppendDurable(r Record) {
	if l.crashed {
		return
	}
	r.At = l.clk.Now()
	if r.Epoch > l.maxEpoch {
		l.maxEpoch = r.Epoch
	}
	l.appends++
	l.telAppends.Inc()
	if r.At == 0 && len(l.durable) == 0 {
		l.snapshot = appendRecord(l.snapshot, r)
		return
	}
	l.durable = appendRecord(l.durable, r)
	l.lastDurAt = r.At
}

// Flush forces a group commit of everything pending now (sync
// durability calls this after every append; batches still form while
// the device is busy with the previous commit).
func (l *Log) Flush() {
	if l.crashed {
		return
	}
	l.kick()
}

// armTimer schedules the group-commit interval flush once per batch;
// with the timer already armed it is a no-op.
//
//herd:hotpath
func (l *Log) armTimer() {
	if l.timerArmed {
		return
	}
	l.timerArmed = true
	var t *flushTimer
	if n := len(l.timerFree); n > 0 {
		t = l.timerFree[n-1]
		l.timerFree = l.timerFree[:n-1]
	} else {
		t = newFlushTimer(l) //lint:allow hotalloc — pool growth: one timer per log, two across a crash
	}
	t.gen = l.gen
	l.clk.After(l.cfg.FlushInterval, t.fire)
}

func newFlushTimer(l *Log) *flushTimer {
	t := &flushTimer{l: l}
	t.fire = t.expire
	return t
}

// expire runs the interval flush, unless a crash since arming made the
// timer stale.
//
//herd:hotpath
func (t *flushTimer) expire() {
	l := t.l
	l.timerFree = append(l.timerFree, t)
	if t.gen != l.gen {
		return
	}
	l.timerArmed = false
	l.kick()
}

// kick starts a flush unless one is already in flight; then it marks
// one due for when that write completes. A compaction does not hold
// the flush back: its chunks and the flush share the device in FIFO
// order.
//
//herd:hotpath
func (l *Log) kick() {
	if len(l.pending) == 0 {
		return
	}
	if l.inflight != nil {
		l.flushDue = true
		return
	}
	l.startFlush()
}

// startFlush begins persisting the whole pending batch: one device
// write of the batch's encoded bytes (bandwidth term) plus the fixed
// persist latency. The batch becomes durable — and sync-mode acks
// fire — only at completion; a crash first persists a byte prefix
// proportional to elapsed time, leaving a torn tail.
//
//herd:hotpath
func (l *Log) startFlush() {
	var fl *flight
	if n := len(l.flightFree); n > 0 {
		fl = l.flightFree[n-1]
		l.flightFree = l.flightFree[:n-1]
	} else {
		fl = newFlight(l) //lint:allow hotalloc — pool growth: a log needs two flights, the committing one and the next
	}
	fl.buf, fl.cbs = fl.buf[:0], fl.cbs[:0]
	fl.firstAt = l.pending[0].rec.At
	for i := range l.pending {
		p := &l.pending[i]
		fl.buf = appendRecord(fl.buf, p.rec)
		if p.onDurable != nil {
			fl.cbs = append(fl.cbs, p.onDurable)
		}
		fl.lastAt = p.rec.At
		*p = pendingRec{}
	}
	// Every record is encoded into the flight and its callback
	// captured, so the pending and staging buffers are dead: the next
	// batch of appends reuses their capacity.
	l.pending = l.pending[:0]
	l.stage = l.stage[:0]
	fl.gen = l.gen
	fl.start = l.dev.NextFree()
	fl.dur = l.xfer(len(fl.buf)) + l.cfg.PersistLatency
	l.inflight = fl
	l.dev.Submit(fl.dur, fl.done)
}

func newFlight(l *Log) *flight {
	fl := &flight{l: l}
	fl.done = fl.complete
	return fl
}

// complete lands the flight's device write — unless a crash since it
// started made it stale — and returns the flight to the pool.
//
//herd:hotpath
func (fl *flight) complete(sim.Time) {
	l := fl.l
	if fl.gen == l.gen {
		l.commitFlush(fl)
	}
	for i := range fl.cbs {
		fl.cbs[i] = nil
	}
	l.flightFree = append(l.flightFree, fl)
}

// commitFlush lands one completed device write: the batch is durable,
// its ack callbacks fire, and a snapshot or follow-on flush may start.
// The batch's lag — how long its oldest record waited to become
// durable — goes to the wal.lag histogram.
//
//herd:hotpath
func (l *Log) commitFlush(fl *flight) {
	l.inflight = nil
	l.durable = append(l.durable, fl.buf...)
	l.lastDurAt = fl.lastAt
	l.flushes++
	l.flushedBytes += uint64(len(fl.buf))
	l.telFlushes.Inc()
	l.telLag.RecordTime(l.clk.Now() - fl.firstAt)
	for _, cb := range fl.cbs {
		cb()
	}
	if l.flushDue || len(l.pending) >= l.cfg.FlushBatch {
		l.flushDue = false
		l.kick()
	} else if len(l.pending) > 0 {
		l.armTimer()
	}
	// Compaction goes behind the follow-on flush, so no batch waits
	// for more than one snapshot chunk.
	l.advanceSnapshot() //lint:allow hotalloc — compaction: a new image per trigger, then one chunk per write
}

// advanceSnapshot hands the device a waiting compaction's next chunk,
// or starts a compaction once the tail has grown past
// max(SnapshotEvery, len(snapshot)) bytes since the last one: the live
// state (via the snapshot source) is encoded as a fresh image and
// written to the device chunk by chunk, and the last chunk's completion
// swaps it in and truncates every record the image covers. Sizing the
// trigger to the image bounds the bytes a compaction rewrites to about
// the bytes appended since the previous one (write amplification near
// 2x) and replay reads to about twice the live state. A crash
// mid-snapshot cancels it cleanly — the swap is atomic at the last
// chunk, so recovery always sees either the old (snapshot, log) pair or
// the new one.
func (l *Log) advanceSnapshot() {
	if l.snapWait {
		l.snapWait = false
		l.writeSnapshotChunk()
		return
	}
	if l.cfg.SnapshotEvery <= 0 || l.source == nil || l.snapInProg {
		return
	}
	if len(l.durable)-l.snapBase < max(l.cfg.SnapshotEvery, len(l.snapshot)) {
		return
	}
	epoch := max(l.maxEpoch, 0)
	takenAt := l.clk.Now()
	var buf []byte
	l.source(func(key kv.Key, value []byte) {
		buf = appendRecord(buf, Record{Op: OpPut, Key: key, Value: value, Epoch: epoch, At: takenAt})
	})
	l.snapInProg, l.snapBuf, l.snapSent, l.snapAt = true, buf, 0, takenAt
	l.writeSnapshotChunk()
}

// writeSnapshotChunk hands the device the compaction image's next
// chunk. The last chunk carries the persist fence, so the image costs
// the device what one write of it would; its completion installs it.
// A chunk that lands while a flush is queued behind it leaves the next
// one waiting for that flush's commit.
func (l *Log) writeSnapshotChunk() {
	n := min(snapshotChunk, len(l.snapBuf)-l.snapSent)
	l.snapSent += n
	last := l.snapSent == len(l.snapBuf)
	dur := l.xfer(n)
	if last {
		dur += l.cfg.PersistLatency
	}
	gen := l.gen
	l.dev.Submit(dur, func(sim.Time) {
		switch {
		case gen != l.gen: // a crash cancelled the compaction
		case last:
			l.installSnapshot()
		case l.inflight != nil:
			l.snapWait = true
		default:
			l.writeSnapshotChunk()
		}
	})
}

// installSnapshot swaps the persisted image in and drops every durable
// record it covers. Records appended after the live-state walk (flushed
// while the image was being written, or pending then) survive as the
// new tail; replay order (snapshot, then tail) keeps last-writer-wins
// intact.
func (l *Log) installSnapshot() {
	buf := l.snapBuf
	l.snapInProg, l.snapBuf = false, nil
	l.snapshot = buf
	l.snapshots++
	l.snapshotBytes += uint64(len(buf))
	l.telSnapshot.Add(uint64(len(buf)))
	recs, _, _ := decodeAll(l.durable)
	var tail []byte
	for _, r := range recs {
		if r.At > l.snapAt {
			tail = appendRecord(tail, r)
		}
	}
	l.durable = tail
	l.snapBase = len(tail)
}

// Crash models power loss: pending (unflushed) records vanish, and a
// flush caught mid-write persists only the byte prefix the device had
// completed — elapsed/duration of the batch — leaving a torn tail for
// recovery to truncate. The durable bytes and snapshot survive (they
// model the NVM/SSD device, not DRAM).
func (l *Log) Crash() {
	l.crashAt(-1)
}

// CrashTorn models the worst-case mid-group-commit power loss: the
// crash lands between append and flush completion, cutting the device
// write strictly inside the batch's final record. If no flush is in
// flight it force-starts one over the pending batch first, so a
// "flushcrash" fault event always produces a torn tail to truncate
// (provided anything was pending).
func (l *Log) CrashTorn() {
	if l.crashed {
		return
	}
	if l.inflight == nil && len(l.pending) > 0 {
		l.startFlush()
	}
	cut := -1
	if fl := l.inflight; fl != nil {
		recs, _, _ := decodeAll(fl.buf)
		if n := len(recs); n > 0 {
			last := encodedLen(len(recs[n-1].Value))
			cut = len(fl.buf) - last + last/2
		}
	}
	l.crashAt(cut)
}

// crashAt is the shared crash path. cut >= 0 overrides the persisted
// prefix of an in-flight flush (CrashTorn); cut < 0 derives it from
// elapsed device time.
func (l *Log) crashAt(cut int) {
	if l.crashed {
		return
	}
	l.crashed = true
	l.gen++
	l.timerArmed = false
	l.flushDue = false
	l.snapInProg, l.snapWait, l.snapBuf = false, false, nil
	for i := range l.pending {
		l.pending[i] = pendingRec{}
	}
	l.pending, l.stage = l.pending[:0], l.stage[:0]
	if fl := l.inflight; fl != nil {
		n := cut
		if n < 0 {
			// A flush still queued behind a snapshot chunk has not
			// started: elapsed is negative and nothing persists.
			elapsed := l.clk.Now() - fl.start
			if fl.dur > 0 {
				n = int(float64(len(fl.buf)) * float64(elapsed) / float64(fl.dur))
			}
		}
		if n > len(fl.buf) {
			n = len(fl.buf)
		}
		if n > 0 {
			l.durable = append(l.durable, fl.buf[:n]...)
		}
		l.inflight = nil
	}
}

// Recover replays the log after a crash: the device reads snapshot +
// log (bandwidth plus one persist latency as the mount cost), the torn
// tail is truncated, and apply runs per surviving record — snapshot
// entries first, then the log tail in append order. done fires when
// replay completes, after which the log accepts appends again. The
// whole sequence is one scheduled event chain on the sim clock, so a
// recovering server stays down for a duration the experiment can
// measure.
func (l *Log) Recover(apply func(Record), done func(RecoverStats)) {
	readBytes := len(l.snapshot) + len(l.durable)
	snapRecs, _, _ := decodeAll(l.snapshot)
	logRecs, clean, torn := decodeAll(l.durable)
	l.durable = l.durable[:clean]
	l.snapBase = clean
	if torn > 0 {
		l.tornBytes += uint64(torn)
		l.telTorn.Add(uint64(torn))
	}
	cost := l.xfer(readBytes) + l.cfg.PersistLatency +
		sim.Time(len(snapRecs)+len(logRecs))*l.cfg.ReplayApply
	gen := l.gen
	l.dev.Submit(cost, func(sim.Time) {
		if gen != l.gen {
			return
		}
		maxEpoch := -1
		for _, r := range snapRecs {
			if r.Epoch > maxEpoch {
				maxEpoch = r.Epoch
			}
			apply(r)
		}
		for _, r := range logRecs {
			if r.Epoch > maxEpoch {
				maxEpoch = r.Epoch
			}
			apply(r)
		}
		n := len(snapRecs) + len(logRecs)
		l.replayed += uint64(n)
		l.telReplayed.Add(uint64(n))
		l.crashed = false
		since := l.lastDurAt - 2*l.cfg.FlushInterval
		if since < 0 {
			since = 0
		}
		done(RecoverStats{
			Records:         len(logRecs),
			SnapshotRecords: len(snapRecs),
			TornBytes:       torn,
			MaxEpoch:        maxEpoch,
			Since:           since,
		})
	})
}

// RecordsSince returns every record (durable and pending) appended at
// or after t, in append order — the replica-side source for a fleet
// delta catch-up: a rejoining peer replays its own log, then asks
// survivors for the writes its lost tail may have missed.
func (l *Log) RecordsSince(t sim.Time) []Record {
	recs, _, _ := decodeAll(l.durable)
	var out []Record
	for _, r := range recs {
		if r.At >= t {
			out = append(out, r)
		}
	}
	if fl := l.inflight; fl != nil {
		frecs, _, _ := decodeAll(fl.buf)
		for _, r := range frecs {
			if r.At >= t {
				out = append(out, r)
			}
		}
	}
	for _, p := range l.pending {
		if p.rec.At >= t {
			// A pending value lives in the staging buffer, which the
			// next batch overwrites: hand out a copy.
			r := p.rec
			if r.Value != nil {
				r.Value = append([]byte(nil), r.Value...)
			}
			out = append(out, r)
		}
	}
	return out
}

// LastDurableAt returns the append instant of the newest durable
// record (zero for an empty log).
func (l *Log) LastDurableAt() sim.Time { return l.lastDurAt }

// Pending reports how many appends await group commit (including an
// in-flight flush).
func (l *Log) Pending() int {
	n := len(l.pending)
	if fl := l.inflight; fl != nil {
		recs, _, _ := decodeAll(fl.buf)
		n += len(recs)
	}
	return n
}

// DurableBytes reports the current durable log size (post-compaction
// tail only).
func (l *Log) DurableBytes() int { return len(l.durable) }

// SnapshotLen reports the current snapshot size in bytes.
func (l *Log) SnapshotLen() int { return len(l.snapshot) }

// Stats snapshot accessors.

// Appends reports total records appended (durable-path included).
func (l *Log) Appends() uint64 { return l.appends }

// Flushes reports completed group commits.
func (l *Log) Flushes() uint64 { return l.flushes }

// Replayed reports records applied across all recoveries.
func (l *Log) Replayed() uint64 { return l.replayed }

// TornBytes reports bytes truncated as torn tails across recoveries.
func (l *Log) TornBytes() uint64 { return l.tornBytes }

// Snapshots reports completed compactions.
func (l *Log) Snapshots() uint64 { return l.snapshots }

// SnapshotBytes reports total bytes written as snapshots.
func (l *Log) SnapshotBytes() uint64 { return l.snapshotBytes }

// Utilization reports the persist device's busy fraction so far.
func (l *Log) Utilization() float64 { return l.dev.Utilization() }
