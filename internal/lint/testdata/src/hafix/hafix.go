// Package hafix is the hotalloc fixture: functions annotated
// //herd:hotpath must be allocation-free; unannotated functions are
// left alone.
package hafix

import (
	"fmt"

	"hafix/dep"
)

type ring struct {
	buf [64]byte
	n   int
}

// value is an empty interface; converting into it boxes.
type value interface{}

// cold is unannotated: the analyzer does not look inside.
func cold() []byte {
	return make([]byte, 8)
}

// helper is annotated, so hot paths may call it.
//
//herd:hotpath
func helper(x int) int { return x + 1 }

// sink is an annotated consumer with an interface parameter: calling
// it is fine, but passing a concrete value boxes at the call site.
//
//herd:hotpath
func sink(v interface{}) {}

//herd:hotpath
func heapwork(r *ring, key uint64, s string, b []byte) {
	_ = make([]byte, 8)         // want `make allocates on the hot path`
	_ = new(ring)               // want `new allocates on the hot path`
	_ = []int{1, 2}             // want `slice literal allocates on the hot path`
	_ = map[int]int{}           // want `map literal allocates on the hot path`
	_ = &ring{}                 // want `&composite literal allocates on hot path heapwork`
	_ = func() int { return 0 } // want `closure literal on hot path heapwork`
	_ = string(b)               // want `\[\]byte-to-string conversion copies on the hot path`
	_ = []byte(s)               // want `string-to-\[\]byte conversion copies on the hot path`
	_ = s + s                   // want `string concatenation allocates on hot path heapwork`
	s += "x"                    // want `string \+= allocates on the hot path`
	_ = fmt.Sprintf("steady")   // want `fmt\.Sprintf of a constant string allocates on hot path heapwork`
	fmt.Println(key)            // want `fmt\.Println allocates on hot path heapwork`
	var i interface{} = key     // want `assignment boxes uint64 into interface\{\} on the hot path`
	_ = i
	_ = value(key) // want `conversion to interface boxes uint64 on the hot path`
	sink(key)      // want `argument boxes uint64 into interface\{\} on the hot path`

	// Amortized or stack-resident constructs stay legal: struct values,
	// array indexing, annotated callees, non-fmt stdlib arithmetic.
	r.n = helper(r.n)
	_ = r.buf[int(key)&63]
	_ = ring{n: 1}

	_ = make([]byte, 4) //lint:allow hotalloc — fixture demonstrates the escape hatch
}

//herd:hotpath
func boxedReturn(key uint64) interface{} {
	return key // want `return boxes uint64 into interface\{\} on the hot path`
}

//herd:hotpath
func pipeline(r *ring) {
	r.n = helper(r.n)
	r.n = dep.Fast(r.n)
	_ = cold() // want `hot path pipeline calls non-hotpath function cold`
	dep.Slow() // want `hot path pipeline calls non-hotpath function dep\.Slow`
}

// queue has a generic receiver: its methods key by the type name, the
// way a call through an instantiation such as queue[int] resolves.
type queue[T any] struct{ buf []T }

//herd:hotpath
func (q *queue[T]) size() int { return len(q.buf) }

func (q *queue[T]) grow() { q.buf = make([]T, 2*len(q.buf)+1) }

//herd:hotpath
func drain(q *queue[int]) {
	_ = q.size()
	q.grow() // want `hot path drain calls non-hotpath function queue\.grow`
}
