package fleet

import (
	"errors"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// ErrValueTooLarge mirrors the backing cache's value bound at the fleet
// client, so a fan-out write is rejected before any replica sees it.
// In versioned mode the bound shrinks by kv.VersionPrefixLen — the
// stamp travels inside the stored value.
var ErrValueTooLarge = errors.New("fleet: value exceeds maximum size")

// ErrPartialWrite reports a versioned write that some replicas applied
// and others did not: the fleet is divergent on this key until repair
// reconciles it, so the operation fails (the write may still become
// visible — callers must treat it as indeterminate, not as a rollback).
var ErrPartialWrite = errors.New("fleet: write applied on only part of the replica set")

// ErrEmptyValue rejects a PUT without a value, as every member
// sub-client does, before any replica sees it.
var ErrEmptyValue = errors.New("fleet: PUT requires a non-empty value")

// Client is one application host's handle on the fleet. It implements
// the kv.KV client interface on top of one HERD sub-client per shard.
// Every operation is one replication round (see round), resolved once
// each sub-operation it issued has resolved, with quorums derived from
// Config.Versioned:
//
//   - Unversioned (R=1, W=1, the paper's first-ack fan-out): a read
//     asks one replica, healthy ones first, and fails over to the next
//     when a sub-operation ends terminally, re-arming the full retry
//     budget against each replica in turn. A write fans out to every
//     replica and succeeds when at least one acknowledges.
//   - Versioned (R=W=N): a read asks every replica and answers with the
//     highest-stamped state, back-filling replicas caught behind it. A
//     write succeeds only when every replica acknowledges.
//
// Busy pushback feeds a shard's circuit breaker. Any other terminal
// failure suspects the shard for Config.Probation of virtual time:
// reads prefer other replicas until the probation lapses.
//
// Counters: Issued/Completed/Failed are fleet-level — an operation
// counts as Failed only when every replica in its set failed. Per-shard
// herd.* metrics keep counting underneath.
type Client struct {
	d       *Deployment
	machine *cluster.Machine
	subs    []kv.KV     // indexed by shard id; grows with AddShard
	suspect []sim.Time  // per shard id: avoid reads until this time
	brk     []breaker   // per shard id: brownout circuit breaker
	hot     *hotTracker // hot-key detector, nil when HotKeyTrack is 0

	issued    uint64
	completed uint64
	failed    uint64
	inflight  int

	reroutes     uint64
	replicaReads uint64
	suspected    uint64
	brkOpens     uint64
	brkCloses    uint64
	brkProbes    uint64
	hotWidened   uint64

	// Versioned-replication state: the write-stamp generator (verID
	// breaks same-instant ties between clients, verSeq between this
	// client's own writes) and the per-key floor of completed write
	// stamps — a read round whose winner is below the floor is provably
	// stale.
	verID  uint64
	verSeq uint64
	floors map[kv.Key]kv.Version

	eng        *sim.Engine
	roundFree  []*round        // recycled rounds (see getRound)
	onRepaired func(kv.Result) // repaired, bound once

	partialWrites uint64
	staleObserved uint64
	repairIssued  uint64
	repairApplied uint64

	telIssued     *telemetry.Counter
	telCompleted  *telemetry.Counter
	telFailed     *telemetry.Counter
	telReroutes   *telemetry.Counter
	telReplica    *telemetry.Counter
	telFanout     *telemetry.Counter
	telSuspected  *telemetry.Counter
	telMGOps      *telemetry.Counter
	telMGKeys     *telemetry.Counter
	telBrkOpened  *telemetry.Counter
	telBrkClosed  *telemetry.Counter
	telBrkProbes  *telemetry.Counter
	telBrkState   *telemetry.Gauge
	telHotWidened *telemetry.Counter
	telHotKeys    *telemetry.Gauge

	telPartial       *telemetry.Counter
	telStaleObserved *telemetry.Counter
	telStaleReads    *telemetry.Counter
	telRepairIssued  *telemetry.Counter
	telRepairApplied *telemetry.Counter
}

// breakerState is the per-shard brownout circuit-breaker state.
type breakerState int

const (
	// breakerClosed: the shard serves normally.
	breakerClosed breakerState = iota
	// breakerOpen: consecutive busy pushback tripped the breaker; reads
	// steer to other replicas until the cooldown lapses.
	breakerOpen
	// breakerHalfOpen: the cooldown lapsed and one probe read is
	// testing the shard; success closes the breaker, busy reopens it.
	breakerHalfOpen
)

// breaker tracks one shard's brownout state. Busy pushback means the
// shard is alive but shedding — a different condition from a suspected
// crash (Probation), so it gets its own state machine: N consecutive
// busy failures open the breaker, reads steer away for the cooldown,
// then a single half-open probe decides between restore and re-open.
type breaker struct {
	state   breakerState
	fails   int      // consecutive busy failures while closed
	until   sim.Time // open until: no probe before this time
	probing bool     // a half-open probe read is in flight
}

var _ kv.KV = (*Client)(nil)

// ConnectClient attaches machine m to every live shard and returns the
// fleet client. Clients connected before an AddShard are attached to
// the new shard automatically.
func (d *Deployment) ConnectClient(m *cluster.Machine) (*Client, error) {
	c := &Client{
		d:       d,
		machine: m,
		eng:     m.Verbs.NIC().Engine(),
		subs:    make([]kv.KV, len(d.shards)),
		suspect: make([]sim.Time, len(d.shards)),
		brk:     make([]breaker, len(d.shards)),
		floors:  make(map[kv.Key]kv.Version),
	}
	c.onRepaired = c.repaired
	tel := m.Verbs.Telemetry()
	c.telIssued = tel.Counter("fleet.ops.issued")
	c.telCompleted = tel.Counter("fleet.ops.completed")
	c.telFailed = tel.Counter("fleet.ops.failed")
	c.telReroutes = tel.Counter("fleet.reroutes")
	c.telReplica = tel.Counter("fleet.reads.replica")
	c.telFanout = tel.Counter("fleet.writes.fanout")
	c.telSuspected = tel.Counter("fleet.suspected")
	c.telMGOps = tel.Counter("fleet.multiget.ops")
	c.telMGKeys = tel.Counter("fleet.multiget.keys")
	c.telBrkOpened = tel.Counter("fleet.breaker.opened")
	c.telBrkClosed = tel.Counter("fleet.breaker.closed")
	c.telBrkProbes = tel.Counter("fleet.breaker.probes")
	c.telBrkState = tel.Gauge("fleet.breaker_state")
	c.telHotWidened = tel.Counter("fleet.hotkey.widened")
	c.telHotKeys = tel.Gauge("fleet.hotkey.hot")
	c.telPartial = tel.Counter("fleet.writes.partial")
	c.telStaleObserved = tel.Counter("fleet.repair.stale")
	c.telStaleReads = tel.Counter("fleet.reads.stale")
	c.telRepairIssued = tel.Counter("fleet.repair.issued")
	c.telRepairApplied = tel.Counter("fleet.repair.applied")
	c.verID = uint64(len(d.clients))
	if d.cfg.HotKeyTrack > 0 {
		c.hot = newHotTracker(d.cfg.HotKeyTrack, d.cfg.HotKeyThreshold, d.cfg.HotKeyWindow)
	}
	for _, sh := range d.shards {
		if !sh.live {
			continue
		}
		sub, err := d.dial(m, sh)
		if err != nil {
			return nil, err
		}
		c.subs[sh.id] = sub
	}
	d.clients = append(d.clients, c)
	return c, nil
}

// attach connects this client to a newly added shard.
func (c *Client) attach(sh *shard) error {
	sub, err := c.d.dial(c.machine, sh)
	if err != nil {
		return err
	}
	for len(c.subs) <= sh.id {
		c.subs = append(c.subs, nil)
		c.suspect = append(c.suspect, 0)
		c.brk = append(c.brk, breaker{})
	}
	c.subs[sh.id] = sub
	return nil
}

//herd:hotpath
func (c *Client) now() sim.Time { return c.eng.Now() }

// Inflight returns the number of fleet-level operations in flight.
func (c *Client) Inflight() int { return c.inflight }

// Issued returns fleet-level operations submitted.
func (c *Client) Issued() uint64 { return c.issued }

// Completed returns fleet-level operations that resolved successfully
// (served by at least one replica).
func (c *Client) Completed() uint64 { return c.completed }

// Failed returns fleet-level failures: operations for which every
// replica in the set failed terminally.
func (c *Client) Failed() uint64 { return c.failed }

// Reroutes counts read failovers: a sub-operation failed terminally and
// the read was reissued against the next replica.
func (c *Client) Reroutes() uint64 { return c.reroutes }

// ReplicaReads counts reads served by a non-primary replica.
func (c *Client) ReplicaReads() uint64 { return c.replicaReads }

// Suspected counts probation starts: terminal (crash-class) failures
// against a shard. Busy pushback never increments it.
func (c *Client) Suspected() uint64 { return c.suspected }

// BreakerOpens, BreakerCloses and BreakerProbes count the brownout
// circuit breaker's transitions: trips to open (including half-open
// probes that failed), restores to closed, and half-open probe reads.
func (c *Client) BreakerOpens() uint64  { return c.brkOpens }
func (c *Client) BreakerCloses() uint64 { return c.brkCloses }
func (c *Client) BreakerProbes() uint64 { return c.brkProbes }

// HotWidened counts reads of a hot key that widening steered to a
// non-primary start of the replica order.
func (c *Client) HotWidened() uint64 { return c.hotWidened }

// PartialWrites counts writes that some replicas applied and others
// did not — in legacy mode a silent divergence (the op still reports
// success), in versioned mode a failed op with ErrPartialWrite.
func (c *Client) PartialWrites() uint64 { return c.partialWrites }

// StaleObserved counts replicas a versioned read round caught behind
// the winning version (each is a read-repair candidate).
func (c *Client) StaleObserved() uint64 { return c.staleObserved }

// RepairsIssued and RepairsApplied count read-repair back-fills sent to
// lagging replicas and those the replica acknowledged.
func (c *Client) RepairsIssued() uint64  { return c.repairIssued }
func (c *Client) RepairsApplied() uint64 { return c.repairApplied }

// BreakerOpen reports whether shard id's breaker is currently steering
// reads away (open or mid-probe).
func (c *Client) BreakerOpen(id int) bool {
	if id < 0 || id >= len(c.brk) {
		return false
	}
	return c.brk[id].state != breakerClosed
}

// markSuspect starts a read probation for shard id after a terminal
// failure against it.
//
//herd:hotpath
func (c *Client) markSuspect(id int) {
	c.suspect[id] = c.now() + c.d.cfg.Probation
	c.suspected++
	c.telSuspected.Inc()
}

// noteBusy records a StatusBusy (overload pushback) failure against
// shard id: the brownout path. Consecutive busy failures trip the
// breaker open; a failed half-open probe re-opens it. Probation is
// never touched — the shard is alive.
//
//herd:hotpath
func (c *Client) noteBusy(id int) {
	b := &c.brk[id]
	b.probing = false
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.until = c.now() + c.d.cfg.BreakerCooldown
		c.brkOpens++
		c.telBrkOpened.Inc()
	case breakerClosed:
		b.fails++
		if b.fails >= c.d.cfg.BreakerThreshold {
			b.state = breakerOpen
			b.until = c.now() + c.d.cfg.BreakerCooldown
			b.fails = 0
			c.brkOpens++
			c.telBrkOpened.Inc()
			c.telBrkState.Add(1)
		}
	case breakerOpen:
		b.until = c.now() + c.d.cfg.BreakerCooldown
	}
}

// noteServed records a successful read or write against shard id: the
// busy streak resets, and a non-closed breaker (including a half-open
// probe that just succeeded) fully restores.
//
//herd:hotpath
func (c *Client) noteServed(id int) {
	b := &c.brk[id]
	b.fails = 0
	b.probing = false
	if b.state != breakerClosed {
		b.state = breakerClosed
		c.brkCloses++
		c.telBrkClosed.Inc()
		c.telBrkState.Add(-1)
	}
}

// noteReadIssue runs before a read is issued to shard id: an open
// breaker whose cooldown lapsed transitions to half-open, and this
// read becomes its probe.
//
//herd:hotpath
func (c *Client) noteReadIssue(id int) {
	b := &c.brk[id]
	if b.state == breakerOpen && b.until <= c.now() && !b.probing {
		b.state = breakerHalfOpen
		b.probing = true
		c.brkProbes++
		c.telBrkProbes.Inc()
	}
}

// readPreferred reports whether shard id should be in the front tier
// of a read order: not under probation, and its breaker either closed
// or due for a half-open probe.
//
//herd:hotpath
func (c *Client) readPreferred(id int, now sim.Time) bool {
	if c.suspect[id] > now {
		return false
	}
	switch b := &c.brk[id]; b.state {
	case breakerOpen:
		return b.until <= now && !b.probing
	case breakerHalfOpen:
		return !b.probing
	}
	return true
}

// readOrder reorders a read's replica order in place, and returns it:
// healthy replicas first (ring order preserved within each group), then
// probationed or breaker-open ones — so a recently failed or
// browned-out primary is tried last instead of eating a full retry
// budget (or another busy round trip) per read. The caller owns order;
// a round passes its own copy of the ring's replica set.
//
//herd:hotpath
func (c *Client) readOrder(order []int) []int {
	now := c.now()
	// A stable insertion sort: the healthy tier keeps ring order, and a
	// replica set is a handful of shards.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && c.readsBefore(order[j], order[j-1], now); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// readsBefore reports whether shard a belongs ahead of shard b in a
// read order. Every healthy replica precedes every unhealthy one. The
// back tier is NOT ring order: when every replica is suspect, ring
// order could try a shard that failed moments ago before one whose
// probation is about to lapse. It orders by probation expiry, then
// breaker cooldown, with the shard id as a deterministic tie-break so
// replays are stable when several replicas were suspected at the same
// instant.
//
//herd:hotpath
func (c *Client) readsBefore(a, b int, now sim.Time) bool {
	pa, pb := c.readPreferred(a, now), c.readPreferred(b, now)
	if pa || pb {
		return pa && !pb
	}
	if c.suspect[a] != c.suspect[b] {
		return c.suspect[a] < c.suspect[b]
	}
	if c.brk[a].until != c.brk[b].until {
		return c.brk[a].until < c.brk[b].until
	}
	return a < b
}

// round is one fleet operation in flight: a GET, PUT or DELETE
// replicated over the key's replica set. It issues the first width
// replicas of order, fails a read over to the next replica it has not
// yet asked, and resolves once every sub-operation it issued has. The
// quorums derive from Config.Versioned: an unversioned round reads one
// replica and succeeds on the first write ack (R=1, W=1); a versioned
// round reads and writes every replica in ring order (R=W=N).
//
// Rounds are pooled per Client (getRound). A round owns its order,
// served and buf storage and keeps their capacity across recycles, and
// each replica's answer comes back through a sub-op slot whose callback
// is bound once, so a steady-state round allocates nothing. A round is
// retired only after finish has called cb, by which point every
// sub-operation it issued has resolved.
type round struct {
	c       *Client
	key     kv.Key
	isGet   bool
	del     bool       // unversioned DELETE (a versioned delete is a tombstone PUT)
	value   []byte     // the bytes a PUT sends every replica
	buf     []byte     // versioned writes: the stamped value (value aliases it)
	stamp   kv.Version // versioned writes: the stamp inside value
	order   []int      // replicas in issue order: the round's own copy
	primary int        // the key's ring primary: reads served elsewhere are replica reads
	width   int        // replicas issued up front
	next    int        // order[next] is the next replica to ask
	pending int        // issued sub-operations not yet resolved
	served  []reply    // served answers, in resolution order
	last    kv.Result  // the most recent failed answer
	begun   sim.Time
	cb      func(kv.Result)
	subs    []*subOp // subs[i] carries order[i]'s answer back
}

// subOp is one replica's slot in a round: the sub-client calls done,
// bound once to resolve, with that replica's answer.
type subOp struct {
	rd   *round
	id   int
	done func(kv.Result)
}

// resolve hands the replica's answer to the owning round.
//
//herd:hotpath
func (s *subOp) resolve(r kv.Result) { s.rd.resolve(s.id, r) }

// reply is one replica's served answer.
type reply struct {
	id  int
	res kv.Result
}

// version splits a versioned read answer. ok is false for a miss;
// unversioned legacy bytes rank at version zero.
//
//herd:hotpath
func (s *reply) version() (v kv.Version, tomb bool, payload []byte, ok bool) {
	if s.res.Status != kv.StatusHit {
		return kv.Version{}, false, nil, false
	}
	if v, tomb, payload, ok := kv.SplitVersion(s.res.Value); ok {
		return v, tomb, payload, true
	}
	return kv.Version{}, false, s.res.Value, true
}

// getRound returns a round from the client's pool (or a fresh one) for
// key, with its order a copy of the replica set reps.
//
//herd:hotpath
func (c *Client) getRound(key kv.Key, reps []int) *round {
	var rd *round
	if n := len(c.roundFree); n > 0 {
		rd = c.roundFree[n-1]
		c.roundFree = c.roundFree[:n-1]
	} else {
		rd = newRound(c) //lint:allow hotalloc — pool growth: the pool reaches the client's peak in-flight count once
	}
	rd.key = key
	rd.order = append(rd.order[:0], reps...)
	rd.primary = reps[0]
	rd.width = len(reps)
	return rd
}

func newRound(c *Client) *round { return &round{c: c} }

// release returns a finished round to its client's pool, dropping
// every reference to the op's caller and answers.
//
//herd:hotpath
func (rd *round) release() {
	for i := range rd.served {
		rd.served[i] = reply{}
	}
	rd.served = rd.served[:0]
	rd.isGet, rd.del = false, false
	rd.value, rd.cb, rd.last = nil, nil, kv.Result{}
	rd.stamp = kv.Version{}
	rd.next, rd.pending = 0, 0
	rd.c.roundFree = append(rd.c.roundFree, rd)
}

// Get reads key. An unversioned fleet asks one replica — healthy ones
// first, hot keys widened across the set — and fails over down that
// order; a versioned fleet asks every replica and answers with the
// highest-stamped state.
//
//herd:hotpath
func (c *Client) Get(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	reps := c.d.Replicas(key)
	if len(reps) == 0 {
		return ErrNoShards
	}
	rd := c.getRound(key, reps)
	rd.isGet, rd.cb = true, cb
	if !c.d.cfg.Versioned {
		rd.width = 1
		c.readOrder(rd.order)
		if c.hot != nil {
			c.widen(key, rd.order)
		}
	}
	c.run(rd)
	return nil
}

// Put writes key to every replica in its set. An unversioned write
// succeeds when at least one replica acknowledges; a versioned write
// is stamped and succeeds only when every replica does. Either way the
// op resolves when the last replica does, so its latency is the time
// to a known outcome.
//
//herd:hotpath
func (c *Client) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	return c.write(key, value, false, cb)
}

// Delete removes key from every replica in its set; a versioned fleet
// writes a tombstone.
//
//herd:hotpath
func (c *Client) Delete(key kv.Key, cb func(kv.Result)) error {
	return c.write(key, nil, true, cb)
}

// write runs a PUT or DELETE round. Every sub-client copies a PUT's
// value before its Put returns, and the round issues all its writes
// inside run, so neither the caller's value nor the round's stamped
// buffer is read after write returns.
//
//herd:hotpath
func (c *Client) write(key kv.Key, value []byte, del bool, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	if !del && len(value) == 0 {
		return ErrEmptyValue
	}
	limit := mica.MaxValueSize
	if c.d.cfg.Versioned {
		limit -= kv.VersionPrefixLen
	}
	if len(value) > limit {
		return ErrValueTooLarge
	}
	reps := c.d.Replicas(key)
	if len(reps) == 0 {
		return ErrNoShards
	}
	rd := c.getRound(key, reps)
	rd.del, rd.value, rd.cb = del, value, cb
	if c.d.cfg.Versioned {
		// A fresh (epoch, seq) stamp — a tombstone for a delete —
		// travels inside the stored bytes as an ordinary PUT.
		c.verSeq++
		rd.stamp = kv.Version{Epoch: int64(c.now()), Seq: c.verSeq<<16 | c.verID&0xffff}
		rd.buf = append(kv.AppendVersion(rd.buf[:0], rd.stamp, del), value...)
		rd.value, rd.del = rd.buf, false
	}
	c.telFanout.Inc()
	c.run(rd)
	return nil
}

// run counts rd issued and asks its first width replicas. The round is
// held open while they issue: a sub-client that answers synchronously
// (a refusal) must not finish — and recycle — the round under this
// loop.
//
//herd:hotpath
func (c *Client) run(rd *round) {
	rd.begun = c.now()
	c.issued++
	c.inflight++
	c.telIssued.Inc()
	rd.pending++
	for rd.next < rd.width {
		rd.issue()
	}
	rd.pending--
	if rd.pending == 0 {
		rd.finish()
	}
}

// issue sends the sub-operation to order[next] through that replica's
// sub-op slot. Each is a fresh sub-client operation with the full retry
// budget.
//
//herd:hotpath
func (rd *round) issue() {
	c, i := rd.c, rd.next
	id := rd.order[i]
	rd.next++
	rd.pending++
	if i == len(rd.subs) {
		rd.subs = append(rd.subs, newSubOp(rd)) //lint:allow hotalloc — slot growth: a round reaches its replica count once
	}
	sub := rd.subs[i]
	sub.id = id
	var err error
	switch {
	case rd.isGet:
		c.noteReadIssue(id)
		err = c.subs[id].Get(rd.key, sub.done)
	case rd.del:
		err = c.subs[id].Delete(rd.key, sub.done)
	default:
		err = c.subs[id].Put(rd.key, rd.value, sub.done)
	}
	if err != nil {
		// The fleet validates every op before issuing it; a refusal
		// anyway counts as that replica's failure so accounting stays
		// balanced.
		rd.resolve(id, kv.Result{Key: rd.key, IsGet: rd.isGet, Status: kv.StatusTimeout, Err: err})
	}
}

func newSubOp(rd *round) *subOp {
	s := &subOp{rd: rd}
	s.done = s.resolve
	return s
}

// resolve records replica id's answer. Busy is a brownout: the shard
// is alive but shedding, so it feeds the circuit breaker and must NOT
// start a probation — failover churn on overload would amplify the
// overload. Every other terminal failure is crash-class and suspects
// the shard. A failed read moves on to the next replica not yet asked.
//
//herd:hotpath
func (rd *round) resolve(id int, r kv.Result) {
	c := rd.c
	rd.pending--
	if r.Err == nil {
		c.noteServed(id)
		rd.served = append(rd.served, reply{id, r})
	} else {
		rd.last = r
		if r.Status == kv.StatusBusy {
			c.noteBusy(id)
		} else {
			c.markSuspect(id)
		}
		if rd.isGet && rd.next < len(rd.order) {
			c.reroutes++
			c.telReroutes.Inc()
			rd.issue()
			return
		}
	}
	if rd.pending == 0 && rd.next >= rd.width {
		rd.finish()
	}
}

// finish delivers the op's result once every issued sub-operation has
// resolved, then retires the round. It fails only when no replica
// served.
//
//herd:hotpath
func (rd *round) finish() {
	c := rd.c
	var res kv.Result
	switch {
	case len(rd.served) == 0:
		res = rd.last
		res.Err = ErrAllReplicasDown
	case rd.isGet:
		res = rd.read()
	default:
		res = rd.ack()
	}
	res.Latency = c.now() - rd.begun
	c.inflight--
	if res.Err == nil {
		c.completed++
		c.telCompleted.Inc()
	} else {
		c.failed++
		c.telFailed.Inc()
	}
	if rd.cb != nil {
		rd.cb(res)
	}
	rd.release()
}

// ack is a write's outcome once some replica acknowledged. A Hit answer
// wins: the server answers a DELETE or tombstone PUT with delete
// semantics (Hit: killed a live entry), and replicas disagree only
// when already divergent. A write some replica missed leaves the set
// divergent on this key: unversioned (W=1) it still succeeds; versioned
// (W=N) it fails with ErrPartialWrite and queues the key for
// anti-entropy.
//
//herd:hotpath
func (rd *round) ack() kv.Result {
	c := rd.c
	res := rd.served[0].res
	for _, s := range rd.served {
		if s.res.Status == kv.StatusHit {
			res = s.res
			break
		}
	}
	res.Key, res.IsGet, res.Value = rd.key, false, nil
	switch {
	case len(rd.served) < rd.next:
		c.partialWrites++
		c.telPartial.Inc()
		if c.d.cfg.Versioned {
			c.d.EnqueueRepair(rd.key) //lint:allow hotalloc — divergence only: a partial write queues anti-entropy
			res.Err = ErrPartialWrite
		}
	case c.d.cfg.Versioned:
		c.noteFloor(rd.key, rd.stamp)
	}
	return res
}

// read is a GET's outcome once some replica served. An unversioned
// round (R=1) forwards its one answer. A versioned round (R=N) answers
// with the highest-stamped state (a tombstone or absent winner is a
// miss) under the winning replica's lease, and back-fills every replica
// caught behind the winner with its bytes; the member server's ordered
// apply makes a repair racing a fresher write harmless. The answer's
// Value is the payload inside the winning reply's value, which the
// sub-client copied for this round and nothing else holds — the repair
// Puts copy it before returning.
//
//herd:hotpath
func (rd *round) read() kv.Result {
	c := rd.c
	if !c.d.cfg.Versioned {
		s := rd.served[0]
		if s.id != rd.primary {
			c.replicaReads++
			c.telReplica.Inc()
		}
		return s.res
	}
	win, top := -1, kv.Version{}
	for i := range rd.served {
		if v, _, _, ok := rd.served[i].version(); ok && (win < 0 || top.Less(v)) {
			win, top = i, v
		}
	}
	res := kv.Result{Key: rd.key, IsGet: true, Status: kv.StatusMiss}
	if top.Less(c.floors[rd.key]) {
		// Every replica that answered is behind a write this client
		// completed: the result is provably stale.
		c.telStaleReads.Inc()
		c.d.EnqueueRepair(rd.key) //lint:allow hotalloc — stale read only: queues anti-entropy
	}
	if win < 0 {
		return res
	}
	w := &rd.served[win]
	if _, tomb, payload, _ := w.version(); !tomb {
		res.Status = kv.StatusHit
		res.Value = payload
		res.Lease = w.res.Lease
	}
	for i := range rd.served {
		s := &rd.served[i]
		if v, _, _, ok := s.version(); i == win || (ok && !v.Less(top)) {
			continue
		}
		c.staleObserved++
		c.telStaleObserved.Inc()
		c.repairIssued++
		c.telRepairIssued.Inc()
		if err := c.subs[s.id].Put(rd.key, w.res.Value, c.onRepaired); err != nil {
			// The anti-entropy sweep retries a refused repair.
			c.d.EnqueueRepair(rd.key) //lint:allow hotalloc — refused repair only
		}
	}
	return res
}

// repaired counts a read-repair back-fill the replica acknowledged.
//
//herd:hotpath
func (c *Client) repaired(r kv.Result) {
	if r.Err == nil {
		c.repairApplied++
		c.telRepairApplied.Inc()
	}
}

// noteFloor raises this client's completed-write floor for key.
//
//herd:hotpath
func (c *Client) noteFloor(key kv.Key, v kv.Version) {
	if f, ok := c.floors[key]; !ok || f.Less(v) {
		c.floors[key] = v
	}
}

// MultiGet reads a batch of keys and delivers all results in one
// callback, in key order. Issue order is grouped by primary shard so
// requests to the same shard are batched back-to-back (they share the
// sub-client's request window and doorbells); each key still gets the
// full failover treatment of Get.
func (c *Client) MultiGet(keys []kv.Key, cb func([]kv.Result)) error {
	results := make([]kv.Result, len(keys))
	if len(keys) == 0 {
		if cb != nil {
			cb(results)
		}
		return nil
	}
	if c.d.ring.Size() == 0 {
		return ErrNoShards
	}
	for _, k := range keys {
		if k.IsZero() {
			return mica.ErrZeroKey
		}
	}
	c.telMGOps.Inc()
	c.telMGKeys.Add(uint64(len(keys)))
	// Duplicate keys issue one read; the shared result lands in every
	// position that asked for it. pos keys first-appearance order via
	// uniq, so issue order is stable regardless of duplication.
	pos := make(map[kv.Key][]int)
	uniq := make([]kv.Key, 0, len(keys))
	for i, k := range keys {
		if _, dup := pos[k]; !dup {
			uniq = append(uniq, k)
		}
		pos[k] = append(pos[k], i)
	}
	// Stable bucket sort of unique keys by primary shard.
	byShard := make(map[int][]kv.Key)
	for _, k := range uniq {
		p := c.d.ring.Primary(k)
		byShard[p] = append(byShard[p], k)
	}
	remaining := len(uniq)
	issue := func(k kv.Key) error {
		return c.Get(k, func(r kv.Result) {
			for _, idx := range pos[k] {
				results[idx] = r
			}
			remaining--
			if remaining == 0 && cb != nil {
				cb(results)
			}
		})
	}
	// Iterate shards in ring order for determinism (map order is not
	// deterministic).
	for _, sid := range c.d.ring.Shards() {
		for _, k := range byShard[sid] {
			if err := issue(k); err != nil {
				return err
			}
		}
	}
	return nil
}
