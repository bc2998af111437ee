// Command perfbench is the repository's host-time benchmark. It runs one
// workload as a closed loop of cells (fresh rig, one unit of work, drain),
// checks every cell's simulated output, and prints the end-to-end metrics
// by name and unit; the last line of standard output is one JSON object.
// With -trace 1 it instead attributes host time and allocations to the
// simulator's layers. It drives the simulator only through its packages'
// exported functions and changes nothing inside them.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload covert-64b --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

//go:embed digests.json
var recordedDigests []byte

// passes is how many times an untraced run measures each cell.
const passes = 5

// goldenCells is how many cells of goldenSeed each workload records and
// replays before it is timed.
const goldenCells = 2

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: covert-64b, nvmf-rw or tenants-lossy")
	seed := flag.Int64("seed", goldenSeed, "workload seed; cell i runs at sim.DeriveSeed(seed, i)")
	seconds := flag.Float64("seconds", 30, "host seconds of cells to measure")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer attribution instead of end-to-end metrics")
	out := flag.String("out", ".bench_build/trace", "directory for the traced run's spans and profiles")
	record := flag.String("record", "", "record the golden digests of every workload into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var golden map[string][]string
	if err := json.Unmarshal(recordedDigests, &golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res, err = tracedRun(os.Stdout, w, *seed, budget, golden[w.name], *out)
	} else {
		res, err = untracedRun(os.Stdout, w, *seed, budget, golden[w.name])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tally counts cells and reports each failure with the check it failed.
func tally(out io.Writer, phase string, cells []cellResult, res *result) {
	for _, c := range cells {
		res.Attempted++
		if c.err != nil {
			res.Failed++
			fmt.Fprintf(out, "FAIL %s cell %d: %v\n", phase, c.cell, c.err)
		}
	}
}

// untracedRun replays the golden cells, then measures cells of seed for
// budget and reports the end-to-end metrics.
func untracedRun(out io.Writer, w workload, seed int64, budget time.Duration, golden []string) (result, error) {
	var res result
	tally(out, "golden", checkGolden(w, golden), &res)
	cells, err := runCells(w, seed, budget, passes, nil)
	if err != nil {
		return res, err
	}
	tally(out, "timed", cells, &res)
	res.Metrics = endToEnd(cells, res.Attempted, res.Failed)
	res.Correct = res.Failed == 0 && len(golden) > 0
	fmt.Fprintf(out, "workload %s seed %d: %d cells timed, %d golden, %d failed (fail_frac %.4f), GOMAXPROCS %d\n",
		w.name, seed, len(cells), len(golden), res.Failed, float64(res.Failed)/float64(res.Attempted), runtime.GOMAXPROCS(0))
	printMetrics(out, res.Metrics)
	return res, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recordGolden writes the digests of the first goldenCells cells of
// goldenSeed for every workload. Every cell must pass its output check.
func recordGolden(path string) error {
	g := map[string][]string{}
	for _, w := range workloads {
		for i := 0; i < goldenCells; i++ {
			c := runCell(w, goldenSeed, i, nil)
			if c.err != nil {
				return fmt.Errorf("%s cell %d: %w", w.name, i, c.err)
			}
			g[w.name] = append(g[w.name], c.digest)
		}
	}
	return saveGolden(path, g)
}
