# Canonical verification entry points (wired into README).
#
#   make check      - everything CI needs: vet, build, race-enabled tests,
#                     the parallel-vs-sequential equivalence check, and vet
#                     plus tests of the perfbench module
#   make test       - plain test run (tier-1: go build ./... && go test ./...)
#   make bench      - regenerate the paper artifacts via the benchmark harness
#   make benchguard - allocation gate: scheduler, server, disabled-trace,
#                     switch forwarding, frame round-trip and egress-arbiter
#                     hot paths must report 0 allocs/op (same gate CI runs)
#   make perf       - refresh the machine-readable perf baseline
#                     (BENCH_<date>.json, see EXPERIMENTS.md)
#   make trace-demo - sample flight-recorder trace from the lossy covert rig
#                     (load trace-demo.json in chrome://tracing or Perfetto)

GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: check vet build test race equivalence perfbench bench benchguard perf trace-demo

check: vet build race equivalence perfbench

vet:
	$(GO) vet ./...

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

# The hot paths the zero-alloc refactor bought must stay allocation-free:
# run the guarded benchmarks with -benchmem and gate on allocs/op == 0.
# ./internal/sim/parallel contributes the inter-domain channel ping-pong
# (BenchmarkEngineParallelXfer), so the window protocol's stage/drain/deliver
# cycle is gated alongside the serial scheduler. BenchmarkServerService (sim)
# and BenchmarkFrameRoundTrip (nic) gate the pooled server jobs and the
# reusable frame buffers of the per-WQE datapath.
benchguard:
	$(GO) test -run '^$$' -bench '^(BenchmarkEngine|BenchmarkServerService|BenchmarkEmitDisabled|BenchmarkSwitchForward|BenchmarkContextCacheHit|BenchmarkFrameRoundTrip|BenchmarkLinkAdversaryOff|BenchmarkCQPollInto|BenchmarkArbiterPick)' \
		-benchtime 1000x -benchmem ./internal/sim ./internal/sim/parallel ./internal/trace ./internal/fabric ./internal/nic ./internal/verbs \
		| $(GO) run ./scripts/benchguard.go -min 14

perf:
	./scripts/bench.sh

# A lossy inter-MR run has the richest trace: go-back-N NAK/rewind/retransmit
# chains, per-TC queueing spans and the receiver's ULI sample track.
# EXPERIMENTS.md walks through reading one.
trace-demo:
	$(GO) run ./cmd/ragnar trace -o trace-demo.json lossgrid
