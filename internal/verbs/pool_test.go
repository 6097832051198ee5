package verbs

import (
	"bytes"
	"math/rand"
	"testing"

	"herdkv/internal/nic"
	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// TestPooledOpLifetime drives every verb path through one requester
// host — so all of them share its sendOp pool — under a fault hook that
// drops and corrupts packets, with the caller scribbling over its Data
// buffer right after every post. UC WRITEs, RC WRITEs (ACKed, signaled),
// UD SENDs, batched UD SENDs and RC READs interleave, and posts keep
// coming while earlier verbs are still in flight, so records are reused
// as soon as they are released. It checks that:
//
//   - every landed payload is byte-exact: the bytes posted, or their
//     deterministic damage when the hook corrupted the packet;
//   - landings, completions and losses match the hook's verdicts,
//     link by link;
//   - no record is released twice, and the free lists hold no
//     duplicates.
//
// Releasing a record before the responder's DMA landing hands its
// payload buffer to a later post while the landing is still pending,
// which the byte-exact check catches.
func TestPooledOpLifetime(t *testing.T) {
	eng := sim.New()
	net := wire.NewNetwork(eng, wire.InfiniBand56(), 1)
	mk := func(node wire.NodeID) *Host {
		return NewHost(eng, nic.New(eng, nic.ConnectX3(), pcie.NewBus(eng, pcie.Gen3x8()), net, node))
	}
	a, b, c := mk(0), mk(1), mk(2)

	type link struct{ src, dst wire.NodeID }
	verdicts := map[link]*[3]int{} // per link: deliver, drop, corrupt
	fr := rand.New(rand.NewSource(7))
	net.SetFaultHook(func(src, dst wire.NodeID, _ sim.Time) wire.Fate {
		f := wire.FateDeliver
		switch x := fr.Intn(100); {
		case x < 15:
			f = wire.FateDrop
		case x < 30:
			f = wire.FateCorrupt
		}
		l := link{src, dst}
		if verdicts[l] == nil {
			verdicts[l] = new([3]int)
		}
		verdicts[l][f]++
		return f
	})

	ucA, ucB := a.CreateQP(wire.UC), b.CreateQP(wire.UC)
	rcA, rcB := a.CreateQP(wire.RC), b.CreateQP(wire.RC)
	rdA, rdC := a.CreateQP(wire.RC), c.CreateQP(wire.RC)
	for _, p := range [][2]*QP{{ucA, ucB}, {rcA, rcB}, {rdA, rdC}} {
		if err := Connect(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	udA, udB := a.CreateQP(wire.UD), b.CreateQP(wire.UD)

	const slot = 512
	const ops = 600
	writeMR := b.RegisterMR(ops * slot) // WRITE i lands in slot i
	recvMR := b.RegisterMR(ops * slot)  // one RECV slot per SEND
	srcMR := c.RegisterMR(64 * 1024)    // READ source, never written
	localMR := a.RegisterMR(ops * slot) // READ i lands in slot i
	r := rand.New(rand.NewSource(1))
	r.Read(srcMR.Bytes())
	for i := 0; i < ops; i++ {
		if err := udB.PostRecv(recvMR, i*slot, slot, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Expected payloads: by WRITE slot, and by content for SENDs (their
	// RECV is whichever is next, so the bytes identify the op).
	type landing struct{ intact, damaged int }
	var writes, sends landing
	writeWant := map[int][]byte{}
	sendWant := map[int][]byte{}
	sendByBytes := map[string]int{} // intact or damaged payload -> SEND id
	landedOnce := map[int]bool{}
	check := func(id int, got, want []byte) {
		t.Helper()
		if landedOnce[id] {
			t.Fatalf("op %d landed twice", id)
		}
		landedOnce[id] = true
		dmg := append([]byte(nil), want...)
		damage(dmg, true)
		switch {
		case bytes.Equal(got, want):
			if id < ops {
				writes.intact++
			} else {
				sends.intact++
			}
		case bytes.Equal(got, dmg):
			if id < ops {
				writes.damaged++
			} else {
				sends.damaged++
			}
		default:
			t.Fatalf("op %d landed %d bytes matching neither its payload nor its damage", id, len(got))
		}
	}
	writeMR.Watch(0, writeMR.Len(), func(off, n int) {
		i := off / slot
		check(i, writeMR.Bytes()[off:off+n], writeWant[i])
	})
	udB.RecvCQ().SetHandler(func(comp Completion) {
		id, ok := sendByBytes[string(comp.Data)]
		if !ok {
			t.Fatalf("SEND landed %d bytes matching no posted payload", len(comp.Data))
		}
		check(ops+id, comp.Data, sendWant[id])
	})

	var readsPosted, readsDone, rcSignaled, rcDone, unrelSignaled, unrelDone int
	readWant := map[uint64][]byte{}
	rdA.SendCQ().SetHandler(func(comp Completion) {
		want := readWant[comp.WRID]
		got := localMR.Bytes()[int(comp.WRID)*slot : int(comp.WRID)*slot+len(want)]
		if !bytes.Equal(got, want) {
			t.Fatalf("READ %d landed bytes differ from the source", comp.WRID)
		}
		readsDone++
	})
	rcA.SendCQ().SetHandler(func(Completion) { rcDone++ })
	ucA.SendCQ().SetHandler(func(Completion) { unrelDone++ })
	udA.SendCQ().SetHandler(func(Completion) { unrelDone++ })

	// The caller's buffers: reused for every post and scribbled over
	// right after it, so only the op's own copy can land.
	buf := make([]byte, slot)
	batchBufs := [][]byte{make([]byte, slot), make([]byte, slot), make([]byte, slot)}
	scribble := func(p []byte) {
		for i := range p {
			p[i] = 0xee
		}
	}
	payload := func() []byte {
		p := make([]byte, 24+r.Intn(300)) // some beyond InlineMax: DMA-fetched
		r.Read(p)
		return p
	}
	nextWrite, nextSend := 0, 0
	sendPayload := func() []byte {
		p := payload()
		dmg := append([]byte(nil), p...)
		damage(dmg, true)
		sendWant[nextSend] = p
		sendByBytes[string(p)] = nextSend
		sendByBytes[string(dmg)] = nextSend
		nextSend++
		return p
	}
	dataPosted := 0
	for step := 0; step < 400; step++ {
		switch k := r.Intn(10); {
		case k < 3: // UC or RC WRITE
			p := payload()
			i := nextWrite
			nextWrite++
			writeWant[i] = p
			copy(buf, p)
			qp, signaled := ucA, r.Intn(2) == 0
			if k == 2 {
				qp, signaled = rcA, true
				rcSignaled++
			} else if signaled {
				unrelSignaled++
			}
			err := qp.PostSend(SendWR{WRID: uint64(i), Verb: WRITE, Data: buf[:len(p)],
				Remote: writeMR, RemoteOff: i * slot, Inline: len(p) <= 256 && r.Intn(2) == 0, Signaled: signaled})
			if err != nil {
				t.Fatal(err)
			}
			dataPosted++
			scribble(buf)
		case k < 6: // UD SEND
			p := sendPayload()
			copy(buf, p)
			signaled := r.Intn(2) == 0
			if signaled {
				unrelSignaled++
			}
			if err := udA.PostSend(SendWR{Verb: SEND, Data: buf[:len(p)], Dest: udB,
				Inline: len(p) <= 256 && r.Intn(2) == 0, Signaled: signaled}); err != nil {
				t.Fatal(err)
			}
			dataPosted++
			scribble(buf)
		case k < 8: // batched UD SENDs
			wrs := make([]SendWR, len(batchBufs))
			for j := range wrs {
				p := sendPayload()
				copy(batchBufs[j], p)
				wrs[j] = SendWR{Verb: SEND, Data: batchBufs[j][:len(p)], Dest: udB, Inline: len(p) <= 256}
			}
			if err := udA.PostSendBatch(wrs); err != nil {
				t.Fatal(err)
			}
			dataPosted += len(wrs)
			for _, bb := range batchBufs {
				scribble(bb)
			}
		default: // READ, capped below the READ window so losses cannot stall it
			if readsPosted >= nic.ConnectX3().ReadWindow-1 {
				continue
			}
			n, off := 16+r.Intn(400), r.Intn(60*1024)
			id := uint64(readsPosted)
			readWant[id] = srcMR.Bytes()[off : off+n]
			readsPosted++
			if err := rdA.PostSend(SendWR{WRID: id, Verb: READ, Remote: srcMR, RemoteOff: off,
				Local: localMR, LocalOff: int(id) * slot, Len: n, Signaled: true}); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunFor(sim.Time(r.Intn(400)) * sim.Nanosecond)
	}
	eng.Run()

	v := func(src, dst wire.NodeID) [3]int {
		if p := verdicts[link{src, dst}]; p != nil {
			return *p
		}
		return [3]int{}
	}
	ab, ba, ac, ca := v(0, 1), v(1, 0), v(0, 2), v(2, 0)
	const deliver, drop, corrupt = wire.FateDeliver, wire.FateDrop, wire.FateCorrupt
	if ab[drop] == 0 || ab[corrupt] == 0 {
		t.Fatalf("fault hook never dropped or corrupted a data packet: %v", ab)
	}
	// Data path a->b: one packet per WRITE or SEND.
	if got := ab[deliver] + ab[drop] + ab[corrupt]; got != dataPosted {
		t.Fatalf("a->b carried %d packets, posted %d data verbs", got, dataPosted)
	}
	if got := writes.intact + sends.intact; got != ab[deliver] {
		t.Errorf("%d intact landings, hook delivered %d", got, ab[deliver])
	}
	if got := writes.damaged + sends.damaged; got != ab[corrupt] {
		t.Errorf("%d damaged landings, hook corrupted %d", got, ab[corrupt])
	}
	// ACKs b->a: one per RC WRITE that arrived; each intact one completes.
	if rcDone != ba[deliver] {
		t.Errorf("%d RC completions, hook delivered %d ACKs", rcDone, ba[deliver])
	}
	if rcDone > rcSignaled {
		t.Errorf("%d RC completions for %d RC WRITEs", rcDone, rcSignaled)
	}
	// Unreliable transports complete on transmit, whatever the wire does.
	if unrelDone != unrelSignaled {
		t.Errorf("%d UC/UD completions, %d signaled posts", unrelDone, unrelSignaled)
	}
	// READs: a request a->c, and a response c->a for each intact request.
	if got := ac[deliver] + ac[drop] + ac[corrupt]; got != readsPosted {
		t.Errorf("a->c carried %d READ requests, posted %d", got, readsPosted)
	}
	if got := ca[deliver] + ca[drop] + ca[corrupt]; got != ac[deliver] {
		t.Errorf("c->a carried %d READ responses, hook delivered %d requests", got, ac[deliver])
	}
	if readsDone != ca[deliver] {
		t.Errorf("%d READs completed, hook delivered %d responses", readsDone, ca[deliver])
	}

	// The free lists: every released record once, each marked free.
	seen := map[*sendOp]bool{}
	for _, h := range []*Host{a, b, c} {
		for _, op := range h.opFree {
			if seen[op] || !op.free {
				t.Fatalf("sendOp %p in a free list twice or not marked free", op)
			}
			seen[op] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no sendOp was ever released")
	}
}

// TestFlushedOpsStayOutOfPool errors a QP while its posts are still in
// PIO: the flushed records' PIO events run afterwards, so they must not
// be back in the pool (where a new post could take them) — they are
// left to the garbage collector.
func TestFlushedOpsStayOutOfPool(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	dst := tb.b.RegisterMR(4096)
	for i := 0; i < 8; i++ {
		if err := qa.PostSend(SendWR{Verb: WRITE, Data: []byte("flushed"), Remote: dst, RemoteOff: 8 * i}); err != nil {
			t.Fatal(err)
		}
	}
	flushed := 0
	qa.SendCQ().SetHandler(func(c Completion) {
		if c.Flushed {
			flushed++
		}
	})
	qa.SetError()
	tb.eng.Run()
	if flushed != 8 {
		t.Fatalf("%d flushed completions, want 8", flushed)
	}
	if n := len(tb.a.opFree); n != 0 {
		t.Fatalf("%d flushed records returned to the pool", n)
	}
	if dst.Bytes()[0] != 0 {
		t.Fatal("a flushed WRITE landed")
	}
}
