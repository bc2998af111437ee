# Canonical verification entry points (wired into README).
#
#   make check      - everything CI needs: vet and gofmt, build,
#                     race-enabled tests, the parallel-vs-sequential
#                     equivalence check, and vet plus tests of the
#                     perfbench module
#   make test       - plain test run (tier-1: go build ./... && go test ./...)
#   make bench      - host cost of every registered experiment
#                     (BenchmarkRegistry) plus the ablation benchmarks
#   make benchguard - allocation gate: every benchmark in the table in
#                     scripts/benchguard.go must stay within its allocs/op
#                     ceiling (same gate CI runs)
#   make perf       - the same gate, then the run as the machine-readable
#                     perf baseline (BENCH_<date>.json, see EXPERIMENTS.md)
#   make trace-demo - sample flight-recorder trace from the lossy covert rig
#                     (load trace-demo.json in chrome://tracing or Perfetto)

GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: check vet build test race equivalence perfbench bench benchguard perf trace-demo

check: vet build race equivalence perfbench

# gofmt reads the tracked Go files only, so build output such as
# .bench_build/ stays out of the check.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# -race across the whole tree also covers the partitioned engine: the clos
# determinism tests run the window protocol's goroutines under the detector.
race:
	$(GO) test -race ./...

# Short-mode equivalence: the determinism suites (worker sweeps AND engine
# partitioning), the golden tests (TestGoldenRegistry renders every
# registered experiment with a golden row at 1 and 4 workers), plus an
# end-to-end CLI diff of -workers=1 vs -workers=4 and -domains=1 vs 2 vs 6
# output on every registered experiment (`ragnar all`).
equivalence:
	$(GO) test -run 'Deterministic|Golden|StableAcross' ./internal/parallel ./internal/revengine ./internal/experiments ./internal/lab
	./scripts/equivalence.sh

# perfbench is a module of its own (perfbench/go.mod), so the root's
# ./... never compiles it, yet it is the main outside consumer of the
# telemetry, defense and nic APIs. Its tests also replay the recorded cell
# digests (perfbench/digests.json).
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# scripts/benchguard.go holds the only list of gated benchmarks and runs
# them itself: hot paths at 0 allocs/op, composite probes at their recorded
# allocs/op plus 1 %. A row over its ceiling or missing from the output
# fails the build.
benchguard:
	$(GO) run ./scripts/benchguard.go

# Writes BENCH_<date>.json at the repo root; a baseline already checked in
# for that date is kept and the new one gets a -2, -3, ... suffix.
perf:
	$(GO) run ./scripts/benchguard.go -o .

# A lossy inter-MR run has the richest trace: go-back-N NAK/rewind/retransmit
# chains, per-TC queueing spans and the receiver's ULI sample track.
# EXPERIMENTS.md walks through reading one.
trace-demo:
	$(GO) run ./cmd/ragnar trace -o trace-demo.json lossgrid
