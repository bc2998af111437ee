package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/thu-has/ragnar/internal/sim"
)

// tracer records spans around the benchmark's calls into the program and
// samples the engine's event queue. A nil *tracer is the untraced run:
// every method is a no-op, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	cell  int
	spans []span
	open  []int // indices of the spans currently open, innermost last

	// Event-queue sampler: every queueEvery of simulated time one event
	// reads Pending and LivePending.
	queueEvery sim.Duration
	queue      queueStats

	// Heap allocations inside counted telemetry.Snap calls; snapCell is
	// the last cell whose snapshot was counted.
	snapCell   int
	snaps      uint64
	snapAllocs uint64
}

// queueStats accumulates the event-queue sampler's readings.
type queueStats struct {
	samples, pending, live uint64
	runs                   uint64 // sampler events fired, excluded from event counts
}

func (q queueStats) sub(o queueStats) queueStats {
	return queueStats{q.samples - o.samples, q.pending - o.pending, q.live - o.live, q.runs - o.runs}
}

// span is one timed call. Parent indexes spans (-1 for a root); Start and
// End are nanoseconds since the traced phase began.
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(queueEvery sim.Duration) *tracer {
	return &tracer{t0: time.Now(), queueEvery: queueEvery, snapCell: -1}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Parent: parent, Start: int64(time.Since(t.t0))})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return idx
}

func (t *tracer) end(idx int) {
	if t == nil {
		return
	}
	t.spans[idx].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// sampleQueue starts the event-queue sampler on eng and returns the
// function that stops it. The sampler only reads the queue, so a traced
// cell's simulated outcome (and digest) equals the untraced one. Stop it
// before a final Run: a live sampler would keep the engine from draining.
func (t *tracer) sampleQueue(eng *sim.Engine) (stop func()) {
	if t == nil {
		return func() {}
	}
	stopped := false
	var tick func()
	tick = func() {
		t.queue.runs++
		if stopped {
			return
		}
		t.queue.samples++
		t.queue.pending += uint64(eng.Pending())
		t.queue.live += uint64(eng.LivePending())
		eng.After(t.queueEvery, tick)
	}
	eng.After(t.queueEvery, tick)
	return func() { stopped = true }
}

// heapAllocs reads the process's cumulative heap allocations (objects and
// bytes). It stops the world, so only the traced run calls it.
func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// allocsBefore and allocsAfter bracket a telemetry.Snap call and count its
// heap allocations. ReadMemStats stops the world, far too slow to bracket
// every call, so only the first snapshot of each cell is counted.
func (t *tracer) allocsBefore() (before uint64, ok bool) {
	if t == nil || t.snapCell == t.cell {
		return 0, false
	}
	n, _ := heapAllocs()
	return n, true
}

func (t *tracer) allocsAfter(before uint64, ok bool) {
	if !ok {
		return
	}
	n, _ := heapAllocs()
	t.snapCell = t.cell
	t.snaps++
	t.snapAllocs += n - before
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

func (t *tracer) spanStats() []spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanStat{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// meanSpan is the mean duration of the spans named name, or 0 when there
// is none (the workload does not make that call).
func (t *tracer) meanSpan(name string) time.Duration {
	var total time.Duration
	count := 0
	for _, s := range t.spans {
		if s.Name == name {
			total += time.Duration(s.End - s.Start)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / time.Duration(count)
}

// modulePath prefixes every function of the simulator in profiles.
const modulePath = "github.com/thu-has/ragnar/"

// layerOf maps one profiled stack (leaf first) to the layer that owns its
// self time. GC work and allocation are the runtime layers wherever they
// were entered from; otherwise the innermost frame inside the module names
// the layer, so a memmove or crc32 is charged to the simulator package that
// called it. Stacks that never enter the module (scheduler, syscalls, the
// profiler) are "other".
func layerOf(stack []string, cpu bool) string {
	if cpu {
		for _, f := range stack {
			if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
				strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") ||
				strings.HasPrefix(f, "runtime.wbBufFlush") {
				return "runtime.gc"
			}
		}
		for _, f := range stack {
			if strings.HasPrefix(f, "runtime.mallocgc") {
				return "runtime.alloc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(f, modulePath)
		if !ok {
			continue
		}
		rest = strings.TrimPrefix(rest, "internal/")
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return "other"
}

// reduceProfile runs `go tool pprof -traces` on a profile and sums the
// sample values of each layer. base, when set, is subtracted first (the
// allocation profile is cumulative over the process). The result maps
// layer to its share of the total; it is empty when the profile caught no
// sample.
func reduceProfile(file, base, sampleIndex string, cpu bool) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	if base != "" {
		args = append(args, "-base="+base)
	}
	args = append(args, file)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", file, err)
	}
	return reduceTraces(out, cpu)
}

// reduceTraces parses `pprof -traces` text: samples are separated by
// dashed lines; a sample's first line carries its value before the leaf
// frame and each further line one caller frame.
func reduceTraces(out []byte, cpu bool) (map[string]float64, error) {
	sums := map[string]float64{}
	var total float64
	var val float64
	var stack []string
	flush := func() {
		if stack != nil {
			sums[layerOf(stack, cpu)] += val
			total += val
		}
		stack = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		// Allocation profiles head each sample with its object size.
		if !inSamples || strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "bytes:") {
			continue
		}
		if stack == nil {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			v, err := parseValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %w", err)
			}
			val = v
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, strings.Fields(line)[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums, nil
}

// parseValue reads one pprof sample value: a plain count, or a duration
// with a unit suffix (10ms, 1.50s, 250us).
func parseValue(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("sample value %q: %w", s, err)
	}
	return float64(d), nil
}
