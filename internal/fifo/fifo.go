// Package fifo is the growable ring-buffer queue every per-op queue in
// the tree uses: a QP's send, receive and ACK queues and an SRQ's
// receive queue (verbs), a mux channel's submission backlog, and a HERD
// client's window-wait queue (core). Popping zeroes the vacated slot,
// so a dequeued op or buffer is not kept reachable by the backing
// array, and a steady push/pop cycle reuses one array instead of
// reallocating on every refill the way q = q[1:] slicing does.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int // index of the front element in buf
	n    int // number of queued elements
}

// Len reports the number of queued elements.
//
//herd:hotpath
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back, doubling the ring when it is full.
//
//herd:hotpath
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow() //lint:allow hotalloc — ring growth, amortized: a queue reaches its working size once
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// grow doubles the ring (minimum 8 slots), unrolling it to start at 0.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size < 8 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// Front returns the front element without removing it. The queue must
// not be empty.
//
//herd:hotpath
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the front element, zeroing its slot. The
// queue must not be empty.
//
//herd:hotpath
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// At returns the i-th element from the front.
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// Clear empties the queue, zeroing every slot it occupied.
func (q *Queue[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = zero
	}
	q.head, q.n = 0, 0
}
