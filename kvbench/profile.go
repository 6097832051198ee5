package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark reads only what attribution needs: samples (location
// ids and counts), locations (function ids, innermost first), functions
// (name index) and the string table.

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

var errProto = errors.New("malformed profile")

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func uvarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errProto
}

// protoFields splits a message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = uvarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n, err := uvarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("%w: wire type %d", errProto, f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		x, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, g := range sub {
				vs, err := varints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if s.count == 0 && len(vs) > 0 {
						s.count = int64(vs[0]) // the first value is the sample count
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					line, err := protoFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // Function
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(f.b))
		}
	}
	return p, nil
}

// stack returns a sample's function names, innermost first.
func (p *profile) stack(s profSample) []string {
	var names []string
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			if i := p.funcs[fn]; i >= 0 && int(i) < len(p.strs) {
				names = append(names, p.strs[i])
			}
		}
	}
	return names
}

// funcPackage returns the import path of a symbol such as
// "herdkv/internal/sim.(*Engine).Step".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// packageLayer maps herdkv packages to the layer they belong to; the
// shared key/result types count as core, machine assembly as sim and
// fault injection as wire.
var packageLayer = map[string]string{
	"main":                      "bench",
	"herdkv/kvbench":            "bench", // the main package, as named in its test binary
	"herdkv/internal/sim":       "sim",
	"herdkv/internal/cluster":   "sim",
	"herdkv/internal/wire":      "wire",
	"herdkv/internal/fault":     "wire",
	"herdkv/internal/pcie":      "pcie",
	"herdkv/internal/nic":       "nic",
	"herdkv/internal/verbs":     "verbs",
	"herdkv/internal/hostmem":   "hostmem",
	"herdkv/internal/mica":      "mica",
	"herdkv/internal/core":      "core",
	"herdkv/internal/kv":        "core",
	"herdkv/internal/wal":       "wal",
	"herdkv/internal/fleet":     "fleet",
	"herdkv/internal/nearcache": "nearcache",
	"herdkv/internal/mux":       "mux",
	"herdkv/internal/telemetry": "telemetry",
}

// gcRoots mark a stack as garbage-collector work wherever they appear.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.GC", "runtime.markroot",
}

// stackLayer attributes one sample (names innermost first) to a layer:
// garbage collection wherever it appears; a runtime leaf (allocation,
// map access, scheduling) is runtime-other; otherwise the innermost
// frame in a herdkv or benchmark package, so other standard-library
// code (sorting, heaps, random numbers) is charged to its caller.
func stackLayer(names []string) string {
	for _, n := range names {
		for _, g := range gcRoots {
			if n == g {
				return "runtime-gc"
			}
		}
	}
	for i, n := range names {
		pkg := funcPackage(n)
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		if i == 0 && isRuntime(pkg) {
			return "runtime-other"
		}
	}
	return "runtime-other"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/")
}

// addShares adds each sample's count to its layer.
func (p *profile) addShares(acc map[string]int64) {
	for _, s := range p.samples {
		acc[stackLayer(p.stack(s))] += s.count
	}
}
