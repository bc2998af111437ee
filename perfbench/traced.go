package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/thu-has/ragnar/internal/sim"
)

// queueEvery is the event-queue sampler's period in simulated time.
const queueEvery = 5 * sim.Microsecond

// cpuLayers and allocLayers are the layers whose profile shares are
// reported as <layer>.cpu_frac and <layer>.alloc_frac; runtime.alloc and
// runtime.gc are reported as runtime.alloc_cpu_frac and runtime.gc_cpu_frac.
// "trace" is the simulator's flight recorder (disabled here), "bench" this
// harness.
var (
	cpuLayers = []string{"sim", "nic", "wire", "fabric", "verbs", "uli", "covert", "appnvmf",
		"traffic", "telemetry", "defense", "trace", "bench"}
	allocLayers = []string{"sim", "nic", "wire", "verbs", "appnvmf"}
)

// tracedRun replays the golden cells, runs cells of seed untraced for half
// the budget and again traced for the other half, and reports per-layer
// metrics from the traced half. Both halves start at cell 0, so the traced
// cells' digests must equal the untraced ones: that shows the spans and
// the queue sampler are passive.
func tracedRun(out io.Writer, w workload, seed int64, budget time.Duration, golden []string, dir string) (result, error) {
	var res result
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	tally(out, "golden", checkGolden(w, golden), &res)
	plain, err := runCells(w, seed, budget/2, 1, nil)
	if err != nil {
		return res, err
	}

	cpuFile := filepath.Join(dir, w.name+".cpu.pprof")
	allocBase := filepath.Join(dir, w.name+".allocs-base.pprof")
	allocFile := filepath.Join(dir, w.name+".allocs.pprof")
	if err := writeAllocs(allocBase); err != nil {
		return res, err
	}
	f, err := os.Create(cpuFile)
	if err != nil {
		return res, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return res, err
	}
	tr := newTracer(queueEvery)
	traced, err := runCells(w, seed, budget/2, 1, tr)
	pprof.StopCPUProfile()
	if err != nil {
		f.Close()
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	if err := writeAllocs(allocFile); err != nil {
		return res, err
	}

	for i := 0; i < min(len(plain), len(traced)); i++ {
		p, t := &plain[i], &traced[i]
		if p.err == nil && t.err == nil && p.digest != t.digest {
			t.err = fmt.Errorf("digest: traced cell %d is %s, untraced %s", i, t.digest, p.digest)
		}
	}
	tally(out, "untraced", plain, &res)
	tally(out, "traced", traced, &res)
	res.Correct = res.Failed == 0 && len(golden) > 0

	cpu, err := reduceProfile(cpuFile, "", "", true)
	if err != nil {
		return res, err
	}
	allocs, err := reduceProfile(allocFile, allocBase, "alloc_objects", false)
	if err != nil {
		return res, err
	}
	res.Metrics = perLayer(traced, plain, tr, cpu, allocs)

	spansFile := filepath.Join(dir, w.name+".spans.json")
	if err := writeJSON(spansFile, tr.spans); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "workload %s seed %d traced: %d cells untraced, %d traced, %d failed; spans in %s\n",
		w.name, seed, len(plain), len(traced), res.Failed, spansFile)
	printMetrics(out, res.Metrics)
	printNotes(out, res.Metrics)
	fmt.Fprintf(out, "  cpu share by layer:   %s\n", shares(cpu))
	fmt.Fprintf(out, "  alloc share by layer: %s\n", shares(allocs))
	fmt.Fprintln(out, "  span self time (top 12):")
	for i, st := range tr.spanStats() {
		if i == 12 {
			break
		}
		fmt.Fprintf(out, "    %-26s n=%-7d total %9.1f ms  self %9.1f ms\n",
			st.Name, st.Count, float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
	return res, nil
}

// countCells is how many traced cells the count metrics cover. A run fits
// as many cells as its time allows, so counts over every cell would change
// with the machine's speed; over a fixed prefix they are exact at a fixed
// seed (allocation counts to within the runtime's own noise).
const countCells = 16

// layerSums adds up what passing cells measured.
type layerSums struct {
	cells                                int
	work                                 time.Duration
	events, mallocs, allocBytes, mrBytes uint64
	queue                                queueStats
	c                                    rigCounters
}

func (s *layerSums) add(c cellResult) {
	s.cells++
	s.work += c.work
	s.events += c.events
	s.mallocs += c.mallocs
	s.allocBytes += c.allocBytes
	s.mrBytes += c.mrBytes
	s.queue.samples += c.queue.samples
	s.queue.pending += c.queue.pending
	s.queue.live += c.queue.live
	d := c.delta
	s.c.wqes += d.wqes
	s.c.retx += d.retx
	s.c.timeouts += d.timeouts
	s.c.ctxHits += d.ctxHits
	s.c.ctxMisses += d.ctxMisses
	s.c.pkts += d.pkts
	s.c.drops += d.drops
	s.c.pfc += d.pfc
}

// perLayer builds the per-layer metrics. Counts come from the first
// countCells traced cells' simulated counters, host time per event from
// every traced cell, shares from the profiles; the overhead compares the
// traced and untraced median cell times.
func perLayer(traced, plain []cellResult, tr *tracer, cpu, allocs map[string]float64) map[string]metric {
	var all, first layerSums
	var tracedMs, plainMs []float64
	for i, c := range traced {
		if c.err != nil {
			continue
		}
		all.add(c)
		if i < countCells {
			first.add(c)
		}
		tracedMs = append(tracedMs, float64(c.work)/1e6)
	}
	for _, c := range plain {
		if c.err == nil {
			plainMs = append(plainMs, float64(c.work)/1e6)
		}
	}
	f := first.c
	per := func(n uint64) float64 { return ratio(float64(n), float64(f.wqes)) }
	m := map[string]metric{
		"sim.events_per_wqe":          {per(first.events), "events/wqe"},
		"sim.ns_per_event":            {ratio(float64(all.work), float64(all.events)), "ns"},
		"sim.queue_mean":              {ratio(float64(first.queue.pending), float64(first.queue.samples)), "count"},
		"sim.dead_frac":               {ratio(float64(first.queue.pending-first.queue.live), float64(first.queue.pending)), "frac"},
		"nic.retx_per_wqe":            {per(f.retx), "count/wqe"},
		"nic.timeouts_per_wqe":        {per(f.timeouts), "count/wqe"},
		"nic.ctx_miss_frac":           {ratio(float64(f.ctxMisses), float64(f.ctxHits+f.ctxMisses)), "frac"},
		"fabric.pkts_per_wqe":         {per(f.pkts), "pkts/wqe"},
		"fabric.drop_frac":            {ratio(float64(f.drops), float64(f.pkts)), "frac"},
		"fabric.pfc_pauses":           {ratio(float64(f.pfc), float64(first.cells)), "count/cell"},
		"verbs.regmr_ms":              {float64(tr.meanSpan("lab.RegisterServerMR")) / 1e6, "ms"},
		"host.mr_mb":                  {ratio(float64(first.mrBytes), float64(first.cells)) / (1 << 20), "MB/cell"},
		"lab.build_ms":                {float64(tr.meanSpan("lab.Pair")+tr.meanSpan("lab.Star")) / 1e6, "ms"},
		"lab.dial_ms":                 {float64(tr.meanSpan("lab.Dial")+tr.meanSpan("lab.Warm")) / 1e6, "ms"},
		"telemetry.snap_us":           {float64(tr.meanSpan("telemetry.Snap")) / 1e3, "us"},
		"telemetry.allocs_per_snap":   {ratio(float64(tr.snapAllocs), float64(tr.snaps)), "count"},
		"defense.score_us":            {float64(tr.meanSpan("defense.Score")) / 1e3, "us"},
		"runtime.allocs_per_wqe":      {per(first.mallocs), "count/wqe"},
		"runtime.bytes_per_wqe":       {per(first.allocBytes), "B/wqe"},
		"runtime.alloc_cpu_frac":      {cpu["runtime.alloc"], "frac"},
		"runtime.gc_cpu_frac":         {cpu["runtime.gc"], "frac"},
		"bench.tracing_overhead_frac": {ratio(percentile(tracedMs, 50), percentile(plainMs, 50)) - 1, "frac"},
	}
	for _, l := range cpuLayers {
		m[l+".cpu_frac"] = metric{cpu[l], "frac"}
	}
	for _, l := range allocLayers {
		m[l+".alloc_frac"] = metric{allocs[l], "frac"}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// notes explains the per-layer metrics a workload leaves at zero because
// it never makes the call they time.
var notes = map[string]string{
	"verbs.regmr_ms":            "RegMR runs inside a covert or appnvmf constructor, not as its own call",
	"lab.dial_ms":               "Dial and Warm run inside a covert or appnvmf constructor, not as their own calls",
	"telemetry.snap_us":         "the workload takes no telemetry snapshots",
	"telemetry.allocs_per_snap": "the workload takes no telemetry snapshots",
	"defense.score_us":          "the workload scores no windows",
}

func printNotes(out io.Writer, m map[string]metric) {
	for _, k := range sortedKeys(notes) {
		if m[k].Value == 0 {
			fmt.Fprintf(out, "  n/a %s: %s\n", k, notes[k])
		}
	}
}

func shares(s map[string]float64) string {
	var b []byte
	for _, k := range sortedKeys(s) {
		b = fmt.Appendf(b, "%s %.3f  ", k, s[k])
	}
	return string(b)
}

func writeAllocs(path string) error {
	runtime.GC() // the allocation profile is published at the end of a GC cycle
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
