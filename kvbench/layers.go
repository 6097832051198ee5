package main

import (
	"strings"

	"herdkv"
)

// machineSnap is one server machine's resource counters. Utilizations
// are kept as busy-time integrals (utilization × now) so that two
// snapshots difference to the utilization over the window between
// them.
type machineSnap struct {
	pio, toHost, fromHost float64
	pu                    float64
	ingress, egress       float64
	recvHit, recvMiss     uint64
	sendHit, sendMiss     uint64
	evicts                uint64
	coreBusy              []herdkv.Time
}

// snap is everything the runner reads through the public accessors at
// one instant. It needs no telemetry, so it is taken in untraced runs.
type snap struct {
	at       herdkv.Time
	events   uint64
	packets  uint64
	machines []machineSnap // one per server

	micaGets, micaHits, micaAccess uint64
	micaEvict, micaWraps           uint64
	shardOps, shardPuts            uint64
	walAppends, walFlushes         uint64
	repairs, partial, reroutes     uint64
}

func takeSnap(d *deployment) snap {
	eng := d.cl.Eng
	now := eng.Now()
	t := float64(now)
	s := snap{at: now, events: eng.Processed(), packets: d.cl.Net.Sent()}
	for i, srv := range d.servers {
		m := d.serverMach[i]
		node := m.Verbs.Node()
		nic := m.Verbs.NIC()
		ms := machineSnap{
			pio:      m.Bus.PIOUtilization() * t,
			toHost:   m.Bus.ToHostUtilization() * t,
			fromHost: m.Bus.FromHostUtilization() * t,
			pu:       nic.PUUtilization() * t,
			ingress:  d.cl.Net.IngressUtilization(node) * t,
			egress:   d.cl.Net.EgressUtilization(node) * t,
			recvHit:  nic.RecvCtxCache().Hits(),
			recvMiss: nic.RecvCtxCache().Misses(),
			sendHit:  nic.SendCtxCache().Hits(),
			sendMiss: nic.SendCtxCache().Misses(),
			evicts:   nic.RecvCtxCache().Evictions() + nic.SendCtxCache().Evictions(),
		}
		ns := srv.Config().NS
		for i := 0; i < ns; i++ {
			ms.coreBusy = append(ms.coreBusy, m.CPU.Core(i).BusyTime())
			st := srv.Partition(i).Stats()
			s.micaGets += st.Gets
			s.micaHits += st.GetHits
			s.micaAccess += st.MemAccesses
			s.micaEvict += st.IndexEvictions
			s.micaWraps += st.LogWraps
		}
		gets, _, puts := srv.Stats()
		s.shardOps += gets + puts + srv.Deletes()
		s.shardPuts += puts
		if w := srv.WAL(); w != nil {
			s.walAppends += w.Appends()
			s.walFlushes += w.Flushes()
		}
		s.machines = append(s.machines, ms)
	}
	for _, fc := range d.fleetCli {
		s.repairs += fc.RepairsIssued()
		s.partial += fc.PartialWrites()
		s.reroutes += fc.Reroutes()
	}
	return s
}

// opCounts are the application operations served in a window, and the
// PUTs among them.
type opCounts struct{ ops, puts uint64 }

// layerMetrics turns two snapshots around a window into the per-layer
// metrics that need no telemetry.
func layerMetrics(a, b snap, n opCounts, out metrics) {
	win := float64(b.at - a.at)
	ops := float64(n.ops)
	busiest := 0
	for i := range b.machines {
		if b.machines[i].pu-a.machines[i].pu > b.machines[busiest].pu-a.machines[busiest].pu {
			busiest = i
		}
	}
	ma, mb := a.machines[busiest], b.machines[busiest]
	out.set("pcie.pio_util", (mb.pio-ma.pio)/win)
	out.set("pcie.to_host_util", (mb.toHost-ma.toHost)/win)
	out.set("pcie.from_host_util", (mb.fromHost-ma.fromHost)/win)
	out.set("nic.pu_util", (mb.pu-ma.pu)/win)
	out.set("wire.ingress_util", (mb.ingress-ma.ingress)/win)
	out.set("wire.egress_util", (mb.egress-ma.egress)/win)
	out.set("wire.packets_per_op", ratio(float64(b.packets-a.packets), ops))

	var rh, rm, sh, sm, ev uint64
	coreMax, coreSum, cores := 0.0, 0.0, 0
	for i := range b.machines {
		x, y := a.machines[i], b.machines[i]
		rh += y.recvHit - x.recvHit
		rm += y.recvMiss - x.recvMiss
		sh += y.sendHit - x.sendHit
		sm += y.sendMiss - x.sendMiss
		ev += y.evicts - x.evicts
		for c := range y.coreBusy {
			u := float64(y.coreBusy[c]-x.coreBusy[c]) / win
			coreSum += u
			cores++
			if u > coreMax {
				coreMax = u
			}
		}
	}
	out.set("nic.recv_ctx_hit_rate", ratio(float64(rh), float64(rh+rm)))
	out.set("nic.send_ctx_hit_rate", ratio(float64(sh), float64(sh+sm)))
	out.set("nic.ctx_evicts_per_op", ratio(float64(ev), ops))
	out.set("cpu.core_util_max", coreMax)
	out.set("cpu.core_util_mean", ratio(coreSum, float64(cores)))

	out.set("mica.get_hit_rate", ratio(float64(b.micaHits-a.micaHits), float64(b.micaGets-a.micaGets)))
	out.set("mica.mem_accesses_per_op", ratio(float64(b.micaAccess-a.micaAccess), ops))
	out.set("mica.index_evictions", float64(b.micaEvict))
	out.set("mica.log_wraps", float64(b.micaWraps))
	out.set("core.shard_ops_per_op", ratio(float64(b.shardOps-a.shardOps), ops))

	appends := float64(b.walAppends - a.walAppends)
	out.set("wal.appends_per_put", ratio(appends, float64(n.puts)))
	out.set("wal.records_per_flush", ratio(appends, float64(b.walFlushes-a.walFlushes)))
	fanout := 0.0
	if len(b.machines) > 1 {
		fanout = ratio(float64(b.shardPuts-a.shardPuts), float64(n.puts))
	}
	out.set("fleet.fanout_per_put", fanout)
	out.set("fleet.repair_issued", float64(b.repairs-a.repairs))
	out.set("fleet.writes_partial", float64(b.partial-a.partial))
	out.set("fleet.reroutes", float64(b.reroutes-a.reroutes))
}

// telSnap holds the telemetry counters the traced run reads.
type telSnap map[string]uint64

var telCounters = []string{
	"verbs.WRITE.posted", "verbs.SEND.posted", "verbs.RECV.posted", "verbs.READ.posted",
	"verbs.payload.inlined", "verbs.payload.dma",
	"verbs.posted.signaled", "verbs.posted.unsignaled", "verbs.send.dropped",
	"pcie.dma.nonposted.reads", "pcie.pio.bytes",
	"herd.retries", "herd.ops.failed", "herd.shed",
	"cache.hits", "cache.misses", "cache.herd.waits", "cache.invalidations",
	"mux.chan.stalls",
}

func takeTelSnap(tel *herdkv.Telemetry) telSnap {
	s := telSnap{}
	for _, name := range telCounters {
		s[name] = tel.Counter(name).Value()
	}
	return s
}

// telemetryMetrics derives the traced run's counter-based metrics over
// the window between a and b.
func telemetryMetrics(tel *herdkv.Telemetry, a, b telSnap, n opCounts, out metrics) {
	d := func(name string) float64 { return float64(b[name] - a[name]) }
	ops := float64(n.ops)
	for _, v := range []string{"WRITE", "SEND", "RECV", "READ"} {
		out.set("verbs."+v+".posted_per_op", ratio(d("verbs."+v+".posted"), ops))
	}
	out.set("verbs.inline_ratio", ratio(d("verbs.payload.inlined"), d("verbs.payload.inlined")+d("verbs.payload.dma")))
	out.set("verbs.unsignaled_ratio", ratio(d("verbs.posted.unsignaled"), d("verbs.posted.unsignaled")+d("verbs.posted.signaled")))
	out.set("verbs.send_dropped", d("verbs.send.dropped"))
	out.set("pcie.dma_reads_per_op", ratio(d("pcie.dma.nonposted.reads"), ops))
	out.set("pcie.pio_bytes_per_op", ratio(d("pcie.pio.bytes"), ops))
	out.set("core.retries", d("herd.retries"))
	out.set("core.failed", d("herd.ops.failed"))
	out.set("core.shed", d("herd.shed"))
	// Histograms cannot be differenced: these two cover warm-up and
	// window together.
	out.set("core.get_p99_us", herdkv.Time(tel.Histogram("herd.get.latency").Percentile(99)).Microseconds())
	out.set("core.put_p99_us", herdkv.Time(tel.Histogram("herd.put.latency").Percentile(99)).Microseconds())
	out.set("mux.op_p99_us", herdkv.Time(tel.Histogram("mux.op.latency").Percentile(99)).Microseconds())
	out.set("mux.stalls_per_op", ratio(d("mux.chan.stalls"), ops))
	hits, misses := d("cache.hits"), d("cache.misses")
	out.set("cache.hit_rate", ratio(hits, hits+misses+d("cache.herd.waits")))
	out.set("cache.herd_waits_per_op", ratio(d("cache.herd.waits"), ops))
	out.set("cache.invalidations_per_put", ratio(d("cache.invalidations"), float64(n.puts)))
}

// stageMetrics aggregates the in-program request spans that started in
// [from, to) by stage (the network-leg prefix dropped): per request,
// the stage's self time summed, then mean and p99 over requests.
func stageMetrics(tr *herdkv.TelemetryTracer, from, to herdkv.Time, out metrics) {
	spans := tr.Spans()
	perReq := map[string]map[uint64]int64{} // stage -> trace id -> self time
	for _, name := range traceStages {
		perReq[name] = map[uint64]int64{}
	}
	starts := map[uint64]herdkv.Time{}
	for _, s := range spans {
		if st, ok := starts[s.TraceID]; !ok || s.Start < st {
			starts[s.TraceID] = s.Start
		}
	}
	for _, s := range spans {
		if st := starts[s.TraceID]; st < from || st >= to {
			continue
		}
		name := s.Name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		if m := perReq[name]; m != nil {
			m[s.TraceID] += int64(s.Duration())
		}
	}
	for _, name := range traceStages {
		var v []int64
		for _, x := range perReq[name] {
			v = append(v, x)
		}
		sortInt64s(v)
		out.set("stage."+name+".mean_us", meanInt64(v)/float64(herdkv.Microsecond))
		out.set("stage."+name+".p99_us", herdkv.Time(percentile(v, p99)).Microseconds())
	}
}

// traceStages are the request-path stages the program marks.
var traceStages = []string{"pio", "fetch", "nic", "wire", "dma", "recv", "cpu", "resp-wire", "cqe"}
