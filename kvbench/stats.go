package main

import "sort"

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be reported at all.
const minBeyond = 10

// A percentile is num/den with integer parts, so rank arithmetic is
// exact: p999 is {999, 1000}.
type pct struct{ num, den int }

var (
	p50  = pct{1, 2}
	p99  = pct{99, 100}
	p999 = pct{999, 1000}
)

// rankIndex is the nearest-rank index of p in a sorted sample of size
// n: ceil(n*p) - 1.
func rankIndex(p pct, n int) int {
	i := (n*p.num+p.den-1)/p.den - 1
	if i < 0 {
		i = 0
	}
	return i
}

// beyond counts the samples strictly past p's rank.
func beyond(p pct, n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(p, n)
}

// tailLevel returns the highest percentile of the ladder p90, p99,
// p99.9, ... that has at least minBeyond samples beyond it in a sample
// of size n, and false when even p90 has too few.
func tailLevel(n int) (pct, bool) {
	best, ok := pct{}, false
	for den := 10; den <= 1_000_000_000; den *= 10 {
		p := pct{den - 1, den}
		if beyond(p, n) < minBeyond {
			break
		}
		best, ok = p, true
	}
	return best, ok
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []int64, p pct) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

func sortInt64s(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// median of v (the mean of the middle pair for even lengths); v is
// reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func meanInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
