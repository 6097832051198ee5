GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-check microbench

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/herdlint ./...

# Apply the suggested fixes herdlint attaches to its diagnostics
# (Sprintf-of-a-literal on a hot path, stale //lint:allow comments).
# CI runs this and requires `git diff --exit-code` afterwards.
lint-fix:
	$(GO) run ./cmd/herdlint -fix ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The six scenario benchmarks, each writing BENCH_<name>.json here:
# the scale-out comparison (single server vs 4-shard sharded vs 4-shard
# R=2 fleet → BENCH_fleet.json), the overload sweep (goodput + p99 vs
# offered load, with and without the overload controller), the
# client-scaling sweep (the Figure 12 cliff with and without the
# endpoint multiplexing tier → BENCH_clients.json), the durability
# comparison (warm WAL rejoin vs cold re-replication after a mid-flush
# crash), the hot-key survival comparison (near cache + leases +
# widening vs plain fleet on the skewed workload) and the nemesis
# consistency comparison (first-ack divergence vs versioned read
# repair).
bench:
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -json . fleet-bench overload clients-sweep durability hotkey consistency

# Bench ratchet: regenerate the benchmarks and diff the throughput
# leaves of every baselines/BENCH_*.json against the fresh same-named
# file; any >5% drop fails (see cmd/benchcheck). Committing a baseline
# file ratchets its scenario. The simulator is deterministic, so a
# failure is a real slowdown, not noise.
bench-check: bench
	$(GO) run ./cmd/benchcheck -max-regress 0.05 baselines .

microbench:
	$(GO) test -bench=. -benchmem -run='^$$' .
