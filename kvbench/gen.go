package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"herdkv"
)

// Every input the benchmark feeds herdkv is generated here, from the
// run's seed, so a change to the program's own workload or key helpers
// cannot change what is measured.

// splitmix64 is the key and value-filler mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keySalt separates the benchmark's key space from any other user of
// the same ids.
const keySalt = 0x6b76_6265_6e63_6821

// keyOf derives the 16-byte key for key id. Both halves are mixed, so
// keys spread over MICA partitions, index buckets and fleet shards.
func keyOf(id uint64) herdkv.Key {
	var k herdkv.Key
	lo := splitmix64(id ^ keySalt)
	hi := splitmix64(lo + id)
	if lo == 0 && hi == 0 {
		hi = 1 // the all-zero key is reserved by the HERD protocol
	}
	binary.LittleEndian.PutUint64(k[0:8], lo)
	binary.LittleEndian.PutUint64(k[8:16], hi)
	return k
}

// Value layout: [key id 8][write seq 8][checksum 8][filler]. The
// checksum covers the id, the seq and the filler, and the filler is a
// function of (id, seq), so a value that is truncated, padded,
// bit-flipped or written for another key fails check.
const valueHeader = 24

// fillValue writes the value for (id, seq) into buf, whose length is
// the workload's value size.
func fillValue(buf []byte, id, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], id)
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	x := splitmix64(id*0x100000001b3 ^ seq)
	for i := valueHeader; i < len(buf); i += 8 {
		x = splitmix64(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[i:], w[:])
	}
	binary.LittleEndian.PutUint64(buf[16:24], valueSum(buf))
}

// valueSum is FNV-1a over every byte but the checksum field.
func valueSum(buf []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i, b := range buf {
		if i >= 16 && i < valueHeader {
			continue
		}
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

var (
	errMalformed = errors.New("malformed value")
	errForeign   = errors.New("value belongs to another key")
	errCorrupt   = errors.New("value checksum mismatch")
	errUnwritten = errors.New("value carries a write sequence never issued")
)

// checkValue verifies a GET hit for key id: the size, the owner, the
// checksum, and that its write sequence was actually issued (maxSeq is
// the highest sequence written for the key so far, preload being 0).
func checkValue(v []byte, id uint64, size int, maxSeq uint64) error {
	if len(v) != size || size < valueHeader {
		return fmt.Errorf("%w: %d bytes, want %d", errMalformed, len(v), size)
	}
	if got := binary.LittleEndian.Uint64(v[0:8]); got != id {
		return fmt.Errorf("%w: key %d got value of key %d", errForeign, id, got)
	}
	if binary.LittleEndian.Uint64(v[16:24]) != valueSum(v) {
		return fmt.Errorf("%w: key %d", errCorrupt, id)
	}
	var want [1024]byte
	seq := binary.LittleEndian.Uint64(v[8:16])
	if seq > maxSeq {
		return fmt.Errorf("%w: key %d seq %d > %d", errUnwritten, id, seq, maxSeq)
	}
	fillValue(want[:size], id, seq)
	for i := valueHeader; i < size; i++ {
		if v[i] != want[i] {
			return fmt.Errorf("%w: key %d filler byte %d", errCorrupt, id, i)
		}
	}
	return nil
}

// keyDist draws key ids.
type keyDist interface {
	next(r *rand.Rand) uint64
}

// uniformKeys draws uniformly from [0, n).
type uniformKeys struct{ n uint64 }

func (u uniformKeys) next(r *rand.Rand) uint64 { return uint64(r.Int63n(int64(u.n))) }

// zipfKeys draws a Zipf(theta) rank by inverse CDF (exact, one binary
// search per draw) and scatters ranks over the id space with a fixed
// odd multiplier, so the hot keys are not neighbours.
type zipfKeys struct {
	n   uint64
	cdf []float64
}

func newZipf(n uint64, theta float64) *zipfKeys {
	cdf := make([]float64, n)
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfKeys{n: n, cdf: cdf}
}

func (z *zipfKeys) rank(r *rand.Rand) uint64 {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return uint64(i)
}

// scatter is a bijection on [0, n) for n a power of two.
func (z *zipfKeys) scatter(rank uint64) uint64 {
	return (rank*0x9e3779b97f4a7c15 + 0x5bd1e995) & (z.n - 1)
}

func (z *zipfKeys) next(r *rand.Rand) uint64 { return z.scatter(z.rank(r)) }

// poisson yields exponential inter-arrival gaps for a Poisson process
// of the given rate in ops per virtual second.
type poisson struct {
	r    *rand.Rand
	mean float64 // mean gap in picoseconds
}

func newPoisson(r *rand.Rand, opsPerSec float64) poisson {
	return poisson{r: r, mean: float64(herdkv.Second) / opsPerSec}
}

// gap returns the next inter-arrival time, at least 1 ps so arrivals
// strictly advance.
func (p poisson) gap() herdkv.Time {
	g := herdkv.Time(p.r.ExpFloat64() * p.mean)
	if g < 1 {
		g = 1
	}
	return g
}

// streamSeed derives a per-stream seed so every simulated client draws
// from its own independent source.
func streamSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed)*0x2545f4914f6cdd1d + stream))
}
