package core

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates this package's //herd:hotpath functions
// at 0 allocs/op: the request encode and response parse/build kernels
// on both sides of the wire, plus the admission-control arithmetic.
// Request payloads build into the pooled op's slot-sized buffer and
// responses into the per-process scratch, so the steady-state data
// path never touches the heap.
func TestHotpathAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	s := &Server{cfg: cfg, queued: make([]int, cfg.NS), svcEWMA: make([]sim.Time, cfg.NS)}
	c := &Client{srv: s, cwnd: float64(cfg.Window)}
	op := &pendingOp{key: kv.FromUint64(9), kind: opPut}
	op.value = append(op.value, []byte("payload-bytes")...)
	respBuf := make([]byte, respHdr+mica.MaxValueSize)
	encodeRespHeader(respBuf, statusOK, 4, 3) // give parseRespHeader a valid header
	var slotRaw [SlotSize]byte
	hotgate.Check(t, ".", map[string]func(){
		"opKind.kindName":       func() { _ = opPut.kindName() },
		"Client.window":         func() { _ = c.window() },
		"Client.encodeRequest":  func() { _ = c.encodeRequest(op, 5) },
		"parseRespHeader":       func() { _, _, _ = parseRespHeader(respBuf[:respHdr]) },
		"Config.SlotIndex":      func() { _ = cfg.SlotIndex(1, 2, 3) },
		"Server.overloaded":     func() { _ = s.overloaded(0) },
		"Server.retryAfterHint": func() { _ = s.retryAfterHint(0) },
		"Server.noteService":    func() { s.noteService(0, 100*sim.Nanosecond) },
		"validLen":              func() { _ = validLen(128) },
		"zeroTail":              func() { zeroTail(slotRaw[:]) },
		"encodeRespHeader":      func() { _ = encodeRespHeader(respBuf, statusOK, 8, 1) },
	})
}

// TestRequestPathAllocs gates a whole HERD request, end to end: a GET
// and a PUT, each from submit to its response callback with the engine
// run to quiescence, on a warmed 1-server cluster with retry timers
// armed. Every stage between — the client's request WRITE, the wire,
// the server's poll and CPU completion, the response SEND, the retry
// timer — runs on a pooled record, so the only allocation left is the
// GET's Result.Value, the copy the API hands the caller.
func TestRequestPathAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.RetryTimeout = 20 * sim.Microsecond
	cl, _, clients := newHERD(t, cfg, 1)
	c := clients[0]
	key := kv.FromUint64(7)
	val := []byte("a value on the request path")
	var got Result
	cb := func(r Result) { got = r }
	for i := 0; i < 64; i++ { // warm every pool and queue
		_ = c.Put(key, val, cb)
		_ = c.Get(key, cb)
		cl.Eng.Run()
	}
	get := testing.AllocsPerRun(200, func() { _ = c.Get(key, cb); cl.Eng.Run() })
	if got.Status != kv.StatusHit || string(got.Value) != string(val) {
		t.Fatalf("GET = %+v, want a hit on %q", got, val)
	}
	put := testing.AllocsPerRun(200, func() { _ = c.Put(key, val, cb); cl.Eng.Run() })
	if got.Status != kv.StatusHit {
		t.Fatalf("PUT = %+v, want StatusHit", got)
	}
	t.Logf("GET %.1f allocs/op, PUT %.1f allocs/op", get, put)
	if get+put > 1 {
		t.Errorf("GET + PUT allocate %.1f + %.1f per op, want at most 1 (the GET's Result.Value)", get, put)
	}
}
