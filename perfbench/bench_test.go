package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func goldenFor(t *testing.T, name string) []string {
	t.Helper()
	var g map[string][]string
	if err := json.Unmarshal(recordedDigests, &g); err != nil {
		t.Fatal(err)
	}
	if len(g[name]) == 0 {
		t.Fatalf("no recorded digests for %s", name)
	}
	return g[name]
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, contract names %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s unit %q, contract says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// A short run of every workload passes its checks and reports every
// end-to-end metric of the contract with its unit.
func TestShortRunReportsEveryMetric(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			w, err := findWorkload(cw.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := untracedRun(io.Discard, w, 7, 0, goldenFor(t, w.name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("short run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, c.EndToEnd)
		})
	}
}

// A short traced run of every workload reports every per-layer metric of
// the contract, and its traced cells reproduce the untraced digests.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	c := loadContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := tracedRun(io.Discard, w, 7, 300*time.Millisecond, goldenFor(t, w.name), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkMetrics(t, res.Metrics, c.PerLayer)
		})
	}
}

// The count metrics of a traced run repeat exactly at a fixed seed, and the
// allocation counts to within a small tolerance, so a later change can be
// held to them.
func TestCountMetricsRepeat(t *testing.T) {
	exact := []string{"sim.events_per_wqe", "sim.queue_mean", "sim.dead_frac", "nic.retx_per_wqe",
		"nic.timeouts_per_wqe", "fabric.pkts_per_wqe", "fabric.drop_frac", "host.mr_mb"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]metric
			for i := range runs {
				res, err := tracedRun(io.Discard, w, 7, 0, goldenFor(t, w.name), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res.Metrics
			}
			for _, k := range exact {
				if a, b := runs[0][k].Value, runs[1][k].Value; a != b {
					t.Errorf("%s: %v then %v", k, a, b)
				}
			}
			a, b := runs[0]["runtime.allocs_per_wqe"].Value, runs[1]["runtime.allocs_per_wqe"].Value
			if a == 0 || math.Abs(a-b)/a > 0.02 {
				t.Errorf("runtime.allocs_per_wqe: %v then %v", a, b)
			}
		})
	}
}

// A digest that differs from the recorded one fails the cell and the run.
func TestTamperedDigestIsAFailure(t *testing.T) {
	w, err := findWorkload("nvmf-rw")
	if err != nil {
		t.Fatal(err)
	}
	golden := append([]string(nil), goldenFor(t, w.name)...)
	golden[1] = "0123456789abcdef"
	cells := checkGolden(w, golden)
	if cells[0].err != nil {
		t.Fatalf("untampered cell failed: %v", cells[0].err)
	}
	if cells[1].err == nil || !strings.HasPrefix(cells[1].err.Error(), "digest:") {
		t.Fatalf("tampered cell: err = %v, want a digest failure", cells[1].err)
	}
	res, err := untracedRun(io.Discard, w, 7, 0, golden)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("run with a tampered digest: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

// A cell whose QPs run out of retries under heavy loss fails its output
// check, and the failure names the check.
func TestInjectedFailingCell(t *testing.T) {
	w := tenantsLossy(0.3, 1)
	c := runCell(w, 7, 0, nil)
	if c.err == nil {
		t.Fatal("cell with 30% loss and a retry limit of 1 passed its check")
	}
	t.Logf("injected failure: %v", c.err)
	if msg := c.err.Error(); !strings.HasPrefix(msg, "retry-budget:") && !strings.HasPrefix(msg, "tenants:") &&
		!strings.HasPrefix(msg, "completion:") {
		t.Fatalf("failure %q does not name a check", msg)
	}
	var res result
	tally(io.Discard, "timed", []cellResult{c}, &res)
	m := endToEnd([]cellResult{c}, res.Attempted, res.Failed)
	if res.Failed != 1 || m["ok_frac"].Value != 0 {
		t.Fatalf("failed=%d ok_frac=%v, want 1 and 0", res.Failed, m["ok_frac"].Value)
	}
}

func TestReduceTraces(t *testing.T) {
	const out = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             github.com/thu-has/ragnar/internal/wire.(*Packet).Marshal
             github.com/thu-has/ragnar/internal/nic.encodeFrame
             main.runCell
-----------+-------------------------------------------------------
      20ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             github.com/thu-has/ragnar/internal/nic.(*NIC).getMsg
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     bytes:  96B
      30ms   github.com/thu-has/ragnar/internal/sim.(*Engine).siftDown
             github.com/thu-has/ragnar/internal/sim.(*Engine).step
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.findRunnable
`
	got, err := reduceTraces([]byte(out), true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"wire": 0.3, "runtime.alloc": 0.2, "runtime.gc": 0.1, "sim": 0.3, "other": 0.1}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	// An allocation profile charges allocations to the allocating layer.
	got, err = reduceTraces([]byte(out), false)
	if err != nil {
		t.Fatal(err)
	}
	if got["nic"] != 0.2 || got["runtime.gc"] != 0 {
		t.Errorf("alloc reduction %v: want nic 0.2 and no runtime layers", got)
	}
}
