// Command benchguard is the benchmark gate behind `make benchguard`, `make
// perf` and the bench-guard CI job, and its table is the only list of gated
// benchmarks. It runs `go test -run '^$' -bench … -benchmem` itself, once
// per iteration count, and fails when a row reports more allocs/op than its
// ceiling, when a row is missing from the output, or when a benchmark
// fails. With -o it also writes the run as the machine-readable perf
// baseline (schema ragnar-bench/v1, one record per row; EXPERIMENTS.md
// "Performance baseline").
//
// Usage (from the repo root):
//
//	go run ./scripts/benchguard.go          # gate only
//	go run ./scripts/benchguard.go -o .     # gate, then write ./BENCH_<date>.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// row is one gated benchmark: its package directory relative to the repo
// root, its name as `go test` prints it (sub-benchmark included, no -N
// suffix), the -benchtime iteration count it runs at and its allocs/op
// ceiling.
type row struct {
	pkg, bench string
	n          int
	allocs     int64
}

// table is the gate. Hot paths must stay allocation-free: ceiling 0 at
// 1000x. Composite probes build a whole CX-5 rig per op at seeds 1 and 2
// (2x), and their allocs/op is not exact at fixed N and seed (pooled
// buffers go with GC timing), so each ceiling is the count recorded in
// BENCH_2026-10-19.json (BenchmarkClosForward: BENCH_2026-10-19-2.json)
// plus 1 %, rounded up. A change that lowers a count lowers its ceiling
// the same way; no change raises one.
var table = []row{
	{"internal/sim", "BenchmarkEngineScheduleFire", 1000, 0},
	{"internal/sim", "BenchmarkEngineHotQueue", 1000, 0},
	{"internal/sim", "BenchmarkEngineBurst", 1000, 0},
	{"internal/sim", "BenchmarkEngineCancel", 1000, 0},
	{"internal/sim", "BenchmarkServerService", 1000, 0},
	{"internal/trace", "BenchmarkEmitDisabled", 1000, 0},
	{"internal/trace", "BenchmarkEmitEnabled", 1000, 0},
	{"internal/fabric", "BenchmarkSwitchForward", 1000, 0},
	{"internal/fabric", "BenchmarkLinkAdversaryOff", 1000, 0},
	{"internal/nic", "BenchmarkContextCacheHit", 1000, 0},
	{"internal/nic", "BenchmarkFrameRoundTrip", 1000, 0},
	{"internal/nic", "BenchmarkArbiterPick/strict", 1000, 0},
	{"internal/nic", "BenchmarkArbiterPick/dwrr", 1000, 0},
	{"internal/verbs", "BenchmarkCQPollInto", 1000, 0},
	{"internal/lab", "BenchmarkClosForward", 2, 821},        // 812 recorded
	{"internal/covert", "BenchmarkChannelInterMR", 2, 712},  // 704 recorded
	{"internal/covert", "BenchmarkChannelIntraMR", 2, 728},  // 720 recorded
	{"internal/appnvmf", "BenchmarkNvmfIO", 2, 829},         // 820 recorded
	{"internal/rednlite", "BenchmarkRednChain", 2, 529},     // 523 recorded
	{"internal/experiments", "BenchmarkLossGrid", 2, 37225}, // 36856 recorded
	{"internal/experiments", "BenchmarkDefGrid", 2, 36920},  // 36554 recorded
}

// benchLine matches "BenchmarkName/sub-8  1000  123 ns/op  0 B/op ...";
// the -N GOMAXPROCS suffix is dropped from the name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse reads `go test -bench -benchmem` output and returns each
// benchmark's metrics by unit ("ns/op", "B/op", "allocs/op", "events/op",
// ...), keyed by "<pkg>.<name>". A failed benchmark or package is an error.
func parse(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		}
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimPrefix(p, "github.com/thu-has/ragnar/")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		metrics := map[string]float64{}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric %q", m[1], f[i])
			}
			metrics[f[i+1]] = v
		}
		out[pkg+"."+m[1]] = metrics
	}
	return out, sc.Err()
}

// check returns one message per row that is missing or allocates more than
// its ceiling.
func check(rows []row, results map[string]map[string]float64) []string {
	var bad []string
	for _, r := range rows {
		name := r.pkg + "." + r.bench
		m, ok := results[name]
		if !ok {
			bad = append(bad, name+": missing from the benchmark output (renamed or deleted?)")
		} else if allocs := int64(m["allocs/op"]); allocs > r.allocs {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op, ceiling %d", name, allocs, r.allocs))
		}
	}
	return bad
}

// run executes the rows, one `go test` per iteration count.
func run(rows []row) (map[string]map[string]float64, error) {
	results := map[string]map[string]float64{}
	for i, r := range rows {
		if slices.ContainsFunc(rows[:i], func(q row) bool { return q.n == r.n }) {
			continue // this iteration count already ran
		}
		var names, pkgs []string
		for _, q := range rows {
			top, _, _ := strings.Cut(q.bench, "/")
			if q.n == r.n && !slices.Contains(names, top) {
				names = append(names, top)
			}
			if p := "./" + q.pkg; q.n == r.n && !slices.Contains(pkgs, p) {
				pkgs = append(pkgs, p)
			}
		}
		args := append([]string{"test", "-run", "^$", "-bench", "^(" + strings.Join(names, "|") + ")$",
			"-benchtime", strconv.Itoa(r.n) + "x", "-benchmem"}, pkgs...)
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		res, err := parse(bytes.NewReader(out))
		if err != nil {
			return nil, err
		}
		maps.Copy(results, res)
	}
	return results, nil
}

// The BENCH_<date>.json layout, schema ragnar-bench/v1.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// EventsPerSec and SimEventsPerOp are set for the benchmarks that own
	// their engine and report events/op.
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	SimEventsPerOp uint64  `json:"sim_events_per_op,omitempty"`
}

type benchDoc struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUs       int           `json:"cpus"`
	NIC        string        `json:"nic"`
	Seed       int64         `json:"seed"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// document converts a gated run into the baseline document. The NIC and
// seed are the composite probes' adapter and first per-iteration seed;
// -benchtime Nx makes every row run exactly its n iterations.
func document(rows []row, results map[string]map[string]float64, date string) benchDoc {
	doc := benchDoc{Schema: "ragnar-bench/v1", Date: date, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(), NIC: "ConnectX-5", Seed: 1}
	for _, r := range rows {
		name := r.pkg + "." + r.bench
		m := results[name]
		rec := benchRecord{Name: name, Iterations: r.n, NsPerOp: m["ns/op"],
			BytesPerOp: int64(m["B/op"]), AllocsPerOp: int64(m["allocs/op"])}
		if ev := m["events/op"]; ev > 0 && rec.NsPerOp > 0 {
			rec.SimEventsPerOp = uint64(math.Round(ev))
			rec.EventsPerSec = ev * 1e9 / rec.NsPerOp
		}
		doc.Benchmarks = append(doc.Benchmarks, rec)
	}
	return doc
}

// outPath names the baseline in dir: BENCH_<date>.json, or
// BENCH_<date>-2.json and so on when that date already has one. A
// checked-in BENCH file is history and is never overwritten.
func outPath(dir, date string) string {
	p := filepath.Join(dir, "BENCH_"+date+".json")
	for i := 2; ; i++ {
		if _, err := os.Stat(p); err != nil {
			return p // free, or unusable: WriteFile reports which
		}
		p = filepath.Join(dir, fmt.Sprintf("BENCH_%s-%d.json", date, i))
	}
}

func main() {
	dir := flag.String("o", "", "also write the run as BENCH_<date>.json into this directory")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	fmt.Printf("benchguard: %s %s/%s, %d CPU\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	results, err := run(table)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range table {
		if m, ok := results[r.pkg+"."+r.bench]; ok {
			fmt.Printf("benchguard: %-50s %8.0f allocs/op (ceiling %d)\n", r.pkg+"."+r.bench, m["allocs/op"], r.allocs)
		}
	}
	if bad := check(table, results); len(bad) > 0 {
		log.Fatalf("%d of %d rows fail:\n  %s", len(bad), len(table), strings.Join(bad, "\n  "))
	}
	fmt.Printf("benchguard: all %d rows within their allocs/op ceilings\n", len(table))
	if *dir == "" {
		return
	}
	date := time.Now().UTC().Format("2006-01-02")
	blob, err := json.MarshalIndent(document(table, results, date), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	path := outPath(*dir, date)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchguard: wrote %s\n", path)
}
