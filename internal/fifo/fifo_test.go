package fifo

import "testing"

// TestFIFOOrderAcrossGrowth pushes and pops through wrap-around and
// growth, checking FIFO order, and that popped slots are zeroed.
func TestFIFOOrderAcrossGrowth(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 100)
	next, want := 0, 0
	for round := 0; round < 20; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(&vals[next%len(vals)])
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			if got := q.Pop(); got != &vals[want%len(vals)] {
				t.Fatalf("round %d: popped element %d, want %d", round, got, want)
			}
			want++
		}
	}
	if q.Len() != next-want {
		t.Fatalf("len = %d, want %d", q.Len(), next-want)
	}
	for i := 0; i < q.Len(); i++ {
		if q.At(i) != &vals[(want+i)%len(vals)] {
			t.Fatalf("At(%d) out of order", i)
		}
	}
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("%d non-nil slots for %d queued elements: popped slots not zeroed", live, q.Len())
	}
	q.Clear()
	for _, p := range q.buf {
		if p != nil {
			t.Fatal("Clear left a slot set")
		}
	}
}
