package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// cellResult is what one cell leaves behind: host times, the outcome of
// its output check, the digest of its simulated result, and the counts the
// per-layer metrics are built from.
type cellResult struct {
	cell        int
	setup, work time.Duration // host CPU time, see cpuTime
	err         error
	digest      string
	mrBytes     uint64
	rssMB       float64 // resident-memory high-water mark while the cell ran
	events      uint64  // engine events fired by the timed work, sampler excluded
	mallocs     uint64  // heap allocations during the timed work (traced only)
	allocBytes  uint64
	queue       queueStats  // event-queue samples of the timed work (traced only)
	delta       rigCounters // counters accumulated by the timed work
}

// rigCounters sums what the benchmark reads from every NIC, link and
// switch of a rig.
type rigCounters struct {
	wqes, retx, timeouts, retryExc uint64
	ctxHits, ctxMisses             uint64
	pkts, drops, pfc               uint64
}

func (c rigCounters) sub(o rigCounters) rigCounters {
	return rigCounters{
		wqes: c.wqes - o.wqes, retx: c.retx - o.retx, timeouts: c.timeouts - o.timeouts,
		retryExc: c.retryExc - o.retryExc, ctxHits: c.ctxHits - o.ctxHits,
		ctxMisses: c.ctxMisses - o.ctxMisses, pkts: c.pkts - o.pkts,
		drops: c.drops - o.drops, pfc: c.pfc - o.pfc,
	}
}

func contexts(topo *lab.Topology) []*verbs.Context {
	return append([]*verbs.Context{topo.Server}, topo.Clients...)
}

func readCounters(topo *lab.Topology) rigCounters {
	var c rigCounters
	for _, ctx := range contexts(topo) {
		n := ctx.NIC().Counters()
		for _, v := range n.TxMsgs {
			c.wqes += v
		}
		c.retx += n.Retransmits
		c.timeouts += n.Timeouts
		c.retryExc += n.RetryExc
		c.ctxHits += n.CtxHits
		c.ctxMisses += n.CtxMisses
		for _, p := range n.PFCPauses {
			c.pfc += p
		}
	}
	for _, l := range topo.Links {
		for tc := 0; tc < 8; tc++ {
			c.pkts += l.TxPackets(tc)
			c.drops += l.Drops(tc) + l.FaultDrops(tc)
		}
	}
	for _, sw := range topo.Switches {
		for tc := 0; tc < 8; tc++ {
			c.drops += sw.BufDrops(tc)
			c.pfc += sw.PFCPauses(tc)
		}
	}
	return c
}

// runCell builds cell number cell of a workload (its seed derived from
// seed), runs its timed work and checks the outcome.
func runCell(w workload, seed int64, cell int, tr *tracer) cellResult {
	res := cellResult{cell: cell}
	if tr != nil {
		tr.cell = cell
	}
	t0 := cpuTime()
	s := tr.begin("setup")
	r, err := w.build(sim.DeriveSeed(seed, uint64(cell)), tr)
	tr.end(s)
	res.setup = cpuTime() - t0
	if err != nil {
		res.err = fmt.Errorf("setup: %w", err)
		return res
	}
	for _, ctx := range contexts(r.topo) {
		res.mrBytes += ctx.Host().Used()
	}
	before := readCounters(r.topo)
	fired := r.topo.Eng.Fired()
	var queue queueStats
	var mallocs, allocBytes uint64
	if tr != nil {
		queue = tr.queue
		mallocs, allocBytes = heapAllocs()
	}

	t1 := cpuTime()
	s = tr.begin("work")
	werr := r.work(tr)
	tr.end(s)
	res.work = cpuTime() - t1

	if tr != nil {
		m, b := heapAllocs()
		res.mallocs, res.allocBytes = m-mallocs, b-allocBytes
		res.queue = tr.queue.sub(queue)
	}
	res.events = r.topo.Eng.Fired() - fired - res.queue.runs
	after := readCounters(r.topo)
	res.delta = after.sub(before)
	if res.err = checkCell(r, werr, after); res.err != nil {
		return res // a failed cell has no result to digest
	}
	d := newDigest()
	for _, ctx := range contexts(r.topo) {
		d.add("nic", *ctx.NIC().Counters())
	}
	r.digest(d)
	res.digest = d.String()
	return res
}

// checkCell is the per-cell output check; the error names the check that
// failed.
func checkCell(r *rig, workErr error, c rigCounters) error {
	if workErr != nil {
		return fmt.Errorf("work: %w", workErr)
	}
	if err := r.topo.DrainCheck(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if c.retryExc > 0 {
		return fmt.Errorf("retry-budget: %d QP(s) exhausted their retry budget", c.retryExc)
	}
	return r.check()
}

// runCells measures the cells 0, 1, ... of seed. The first pass runs new
// cells, each starting when the previous one finishes, until its share of
// budget has passed; every further pass runs the same cells again. A cell
// keeps the least set-up time, work time and peak RSS of its passes: on a
// shared machine interference (another tenant on the core, the collector's
// timing) only ever adds to a measurement, and it comes and goes within
// seconds, so the least of passes spread across the run is the steady
// figure. A cell whose passes disagree on the digest fails.
func runCells(w workload, seed int64, budget time.Duration, passes int, tr *tracer) ([]cellResult, error) {
	var out []cellResult
	start := time.Now()
	for cell := 0; cell == 0 || time.Since(start) < budget/time.Duration(passes); cell++ {
		c, err := measureCell(w, seed, cell, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	for p := 1; p < passes; p++ {
		for i := range out {
			c, err := measureCell(w, seed, i, tr)
			if err != nil {
				return nil, err
			}
			o := &out[i]
			if o.err == nil && c.err == nil && c.digest != o.digest {
				c.err = fmt.Errorf("determinism: cell %d digest is %s in pass %d, %s in pass 1", i, c.digest, p+1, o.digest)
			}
			if o.err == nil {
				o.err = c.err
			}
			o.setup, o.work, o.rssMB = min(o.setup, c.setup), min(o.work, c.work), min(o.rssMB, c.rssMB)
		}
	}
	return out, nil
}

// measureCell runs one cell and takes its resident-memory high-water mark.
func measureCell(w workload, seed int64, cell int, tr *tracer) (cellResult, error) {
	if err := resetPeakRSS(); err != nil {
		return cellResult{}, err
	}
	c := runCell(w, seed, cell, tr)
	var err error
	c.rssMB, err = peakRSSMB()
	return c, err
}

// checkGolden replays the recorded cells of goldenSeed and fails every
// cell whose digest differs from the recorded one.
func checkGolden(w workload, want []string) []cellResult {
	out := make([]cellResult, len(want))
	for i, d := range want {
		out[i] = runCell(w, goldenSeed, i, nil)
		if out[i].err == nil && out[i].digest != d {
			out[i].err = fmt.Errorf("digest: cell %d at seed %d is %s, recorded %s", i, goldenSeed, out[i].digest, d)
		}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile is the nearest-rank p-th percentile of xs, 0 for none (a run
// whose every cell failed still reports, with correct false).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// endToEnd computes the user-facing metrics of an untraced phase. Failed
// cells are counted, never timed. Timings and memory are medians (and p90)
// over cells.
func endToEnd(cells []cellResult, attempted, failed int) map[string]metric {
	var work time.Duration
	var wqes uint64
	var cellMs, setupS, rssMB []float64
	for _, c := range cells {
		setupS = append(setupS, c.setup.Seconds())
		rssMB = append(rssMB, c.rssMB)
		if c.err != nil {
			continue
		}
		work += c.work
		wqes += c.delta.wqes
		cellMs = append(cellMs, float64(c.work)/1e6)
	}
	return map[string]metric{
		"wqe_per_s":   {ratio(float64(wqes), work.Seconds()), "1/s"},
		"cell_ms_p50": {percentile(cellMs, 50), "ms"},
		"cell_ms_p90": {percentile(cellMs, 90), "ms"},
		"setup_s":     {percentile(setupS, 50), "s"},
		"peak_rss_mb": {percentile(rssMB, 50), "MB"},
		"ok_frac":     {1 - float64(failed)/float64(attempted), "frac"},
	}
}

// cpuTime is the host CPU time the process has used, all threads
// together. Cells are timed with it rather than with the wall clock: on a
// shared machine the wall clock also counts the time this process waited
// for a CPU (another tenant's work, or a hypervisor's steal), which is
// noise to the benchmark and not work the simulator did.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's resident-memory high-water mark back to
// its current resident size (Linux 4.0 and later), so the next read covers
// one cell. The process-lifetime mark would instead record whichever cell
// happened to meet the heap at its largest, which varies run to run with
// the collector's timing.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
