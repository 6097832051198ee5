package fifo

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
)

// TestHotpathAllocFree gates the queue's //herd:hotpath methods at 0
// allocs/op: once a queue has grown to its working size, a push/pop
// cycle reuses the ring.
func TestHotpathAllocFree(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	pushPop := func() { q.Push(1); _ = q.Front(); _ = q.Len(); q.Pop() }
	hotgate.Check(t, ".", map[string]func(){
		"Queue.Push":  pushPop,
		"Queue.Pop":   pushPop,
		"Queue.Front": pushPop,
		"Queue.Len":   pushPop,
	})
}
