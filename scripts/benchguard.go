// Command benchguard is the allocation gate behind `make benchguard` and the
// bench-guard CI job. It reads `go test -bench -benchmem` output on stdin and
// fails when any guarded benchmark reports more than zero allocs/op — the
// scheduler hot path, the disabled-recorder emit path, the switch
// forwarding path, the ICM context-cache hit path, the no-adversary link
// injection-hook path, the CQ PollInto drain path, the egress arbiter pick
// (both strategies), the sim.Server submit/serve cycle and the NIC's frame
// encode+verify round trip are required to stay allocation-free, and this
// gate is what turns a regression into a red build instead of a slow
// simulator.
//
// Usage:
//
//	go test -run '^$' -bench '^(BenchmarkEngine|BenchmarkServerService|BenchmarkEmitDisabled|BenchmarkSwitchForward|BenchmarkContextCacheHit|BenchmarkFrameRoundTrip|BenchmarkLinkAdversaryOff|BenchmarkCQPollInto|BenchmarkArbiterPick)' \
//	    -benchtime 1000x -benchmem ./internal/sim ./internal/sim/parallel ./internal/trace ./internal/fabric ./internal/nic ./internal/verbs \
//	    | go run ./scripts/benchguard.go -min 14
//
// The gate also fails when fewer guarded benchmarks appear than expected
// (-min, default 7; the Makefile passes 14 to include the inter-domain
// channel ping-pong, the adversary-off link path, the CQ drain path, both
// egress-arbiter strategies, the server cycle and the frame round trip): a
// renamed or deleted benchmark must not silently drop out of the guard.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// guarded matches the benchmarks that must stay at 0 allocs/op. Amortised
// B/op from slab growth is allowed; allocation count is not.
var guarded = regexp.MustCompile(`^Benchmark(Engine\w*|ServerService|EmitDisabled|SwitchForward|ContextCacheHit|FrameRoundTrip|LinkAdversaryOff|CQPollInto|ArbiterPick(?:/[\w-]+)?)$`)

// benchLine captures "BenchmarkName-8  1000  123 ns/op  0 B/op  0 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

var allocsField = regexp.MustCompile(`(\d+)\s+allocs/op`)

func main() {
	min := flag.Int("min", 7, "minimum number of guarded benchmarks that must appear")
	flag.Parse()

	seen := 0
	bad := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil || !guarded.MatchString(m[1]) {
			continue
		}
		am := allocsField.FindStringSubmatch(m[2])
		if am == nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s has no allocs/op field (run with -benchmem)\n", m[1])
			bad++
			continue
		}
		allocs, err := strconv.Atoi(am[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s: bad allocs/op %q\n", m[1], am[1])
			bad++
			continue
		}
		seen++
		status := "ok"
		if allocs > 0 {
			status = "FAIL"
			bad++
		}
		fmt.Printf("benchguard: %-40s %d allocs/op  %s\n", m[1], allocs, status)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if seen < *min {
		fmt.Fprintf(os.Stderr, "benchguard: only %d guarded benchmarks seen, want >= %d — benchmark renamed or bench run incomplete?\n", seen, *min)
		os.Exit(1)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmark(s) allocate on the hot path\n", bad)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d guarded benchmarks allocation-free\n", seen)
}
