package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Emit(Event{Kind: KindPSNSend}) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil || r.Metrics() != nil {
		t.Fatal("nil recorder leaked state")
	}
	if got := r.RegisterActor("x"); got != 0 {
		t.Fatalf("nil RegisterActor = %d, want 0", got)
	}
}

func TestRingWrapKeepsNewestInOrder(t *testing.T) {
	r := NewRecorder("wrap", 4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{At: int64(i), Kind: KindRxPkt, Val: uint64(i)})
	}
	if r.Total() != 10 || r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("total=%d len=%d dropped=%d", r.Total(), r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.At != want {
			t.Fatalf("event %d at %d, want %d (oldest-first after wrap)", i, ev.At, want)
		}
	}
	// Metrics keep counting across the wrap.
	if got := r.Metrics().Count(KindRxPkt); got != 10 {
		t.Fatalf("metrics count %d, want 10", got)
	}
}

func TestActorInterning(t *testing.T) {
	r := NewRecorder("actors", 16)
	a := r.RegisterActor("nic/psn")
	b := r.RegisterActor("link")
	if a == b {
		t.Fatal("distinct actors share an id")
	}
	if again := r.RegisterActor("nic/psn"); again != a {
		t.Fatalf("re-registering returned %d, want %d", again, a)
	}
	if r.Actors()[a] != "nic/psn" || r.Actors()[b] != "link" {
		t.Fatalf("actor table %v", r.Actors())
	}
}

func TestMetricsDerivation(t *testing.T) {
	r := NewRecorder("m", 64)
	r.Emit(Event{Kind: KindArbGrant, TC: 3, Val: 1000})
	r.Emit(Event{Kind: KindArbGrant, TC: 3, Val: 500})
	r.Emit(Event{Kind: KindRxPkt, TC: 0, Val: 64})
	r.Emit(Event{Kind: KindTailDrop, TC: 3, Val: 100})
	r.Emit(Event{Kind: KindWireDrop, TC: 3, Val: 100})
	r.Emit(Event{Kind: KindWireCorrupt, TC: 1, Val: 9})
	r.Emit(Event{Kind: KindPFCPause, TC: 0})
	r.Emit(Event{Kind: KindRetransmit, Dur: 5000})
	r.Emit(Event{Kind: KindRtxTimeout})
	r.Emit(Event{Kind: KindNakSend})
	r.Emit(Event{Kind: KindDupAck})
	r.Emit(Event{Kind: KindRxCorrupt})
	r.Emit(Event{Kind: KindTCDequeue, TC: 2, Dur: 1 << 20})
	r.Emit(Event{Kind: KindTCDequeue, TC: -1, Dur: 300})
	m := r.Metrics()
	want := map[Kind]uint64{
		KindArbGrant: 2, KindRxPkt: 1, KindTailDrop: 1, KindWireDrop: 1,
		KindWireCorrupt: 1, KindPFCPause: 1, KindRetransmit: 1, KindRtxTimeout: 1,
		KindNakSend: 1, KindDupAck: 1, KindRxCorrupt: 1, KindTCDequeue: 2,
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if got := m.Count(k); got != want[k] {
			t.Errorf("Count(%v) = %d, want %d", k, got, want[k])
		}
	}
	if m.RetxStall.Count() != 1 || m.RetxStall.Sum() != 5000 {
		t.Fatalf("retx stall hist n=%d sum=%d", m.RetxStall.Count(), m.RetxStall.Sum())
	}
	// Queueing delay lands in its own TC's histogram; an event without a
	// TC (-1) folds into TC 7.
	for tc := range m.QueueDelay {
		var n uint64
		var sum int64
		switch tc {
		case 2:
			n, sum = 1, 1<<20
		case 7:
			n, sum = 1, 300
		}
		if h := &m.QueueDelay[tc]; h.Count() != n || h.Sum() != sum {
			t.Errorf("QueueDelay[%d] n=%d sum=%d, want n=%d sum=%d", tc, h.Count(), h.Sum(), n, sum)
		}
	}
}

func TestULIJitterTracksPerActor(t *testing.T) {
	r := NewRecorder("j", 64)
	// Two actors interleaved: jitter must pair samples within an actor.
	r.Emit(Event{Kind: KindULISample, Actor: 1, At: 1000})
	r.Emit(Event{Kind: KindULISample, Actor: 2, At: 1500})
	r.Emit(Event{Kind: KindULISample, Actor: 1, At: 3000})
	m := r.Metrics()
	if m.ULIJitter.Count() != 1 {
		t.Fatalf("jitter observations %d, want 1", m.ULIJitter.Count())
	}
	if m.ULIJitter.Sum() != 2000 {
		t.Fatalf("jitter sum %d, want 2000 (actor-1 gap)", m.ULIJitter.Sum())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	for i := 0; i < 90; i++ {
		h.Record(100) // bucket [64,128)
	}
	for i := 0; i < 10; i++ {
		h.Record(1 << 30)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q < 100 || q > 256 {
		t.Fatalf("p50 = %d, want within the 100ps bucket's edge", q)
	}
	if q := h.Quantile(0.99); q < 1<<30 {
		t.Fatalf("p99 = %d, want >= 2^30", q)
	}
	if h.Max() != 1<<30 {
		t.Fatalf("max %d", h.Max())
	}
	h.Record(-5) // clamps, never panics
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.observe(Event{Kind: KindRetransmit, Dur: 10})
	b.observe(Event{Kind: KindRetransmit, Dur: 20})
	b.observe(Event{Kind: KindArbGrant, TC: 1, Val: 7})
	a.observe(Event{Kind: KindTCDequeue, TC: 1, Dur: 100})
	b.observe(Event{Kind: KindTCDequeue, TC: 1, Dur: 400})
	a.Merge(b)
	a.Merge(nil)
	if a.Count(KindRetransmit) != 2 || a.RetxStall.Count() != 2 || a.RetxStall.Sum() != 30 {
		t.Fatal("merge lost histogram state")
	}
	if a.Count(KindArbGrant) != 1 || a.Count(KindTCDequeue) != 2 {
		t.Fatalf("merge lost kind counts: grant %d, dequeue %d", a.Count(KindArbGrant), a.Count(KindTCDequeue))
	}
	if h := &a.QueueDelay[1]; h.Count() != 2 || h.Sum() != 500 || h.Max() != 400 {
		t.Fatalf("merged TC 1 queueing delay n=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

// TestChromeExportSchema is the acceptance check that exported traces are
// valid Chrome trace-event JSON: a traceEvents array whose entries all carry
// name/ph/ts/pid/tid, metadata names the shard and actors, spans carry dur,
// and counters carry a numeric value.
func TestChromeExportSchema(t *testing.T) {
	r := NewRecorder("cell0", 64)
	psn := r.RegisterActor("nic/psn")
	r.Emit(Event{At: 1_000_000, Kind: KindPSNSend, Actor: psn, QPN: 65, PSN: 3, TC: 0})
	r.Emit(Event{At: 2_000_000, Dur: 500_000, Kind: KindCQE, Actor: psn, QPN: 65, TC: 0})
	r.Emit(Event{At: 3_000_000, Kind: KindBWSample, Actor: psn, Val: math.Float64bits(12.5), TC: -1})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawProcess, sawSpan, sawCounter, sawInstant bool
	for _, ev := range file.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				sawProcess = true
			}
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("span without dur: %v", ev)
			}
			sawSpan = true
		case "C":
			args := ev["args"].(map[string]any)
			if _, ok := args["value"].(float64); !ok {
				t.Fatalf("counter without numeric value: %v", ev)
			}
			sawCounter = true
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant without thread scope: %v", ev)
			}
			sawInstant = true
		}
	}
	if !sawProcess || !sawSpan || !sawCounter || !sawInstant {
		t.Fatalf("missing phases: M=%v X=%v C=%v i=%v", sawProcess, sawSpan, sawCounter, sawInstant)
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder("det", 32)
		a := r.RegisterActor("link")
		for i := 0; i < 50; i++ {
			r.Emit(Event{At: int64(i) * 1000, Kind: KindTCEnqueue, Actor: a, TC: int8(i % 8), Val: 64, Aux: 1})
		}
		return r
	}
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chrome export is not byte-deterministic")
	}
}

func TestWriteTextTimeline(t *testing.T) {
	r := NewRecorder("txt", 4)
	a := r.RegisterActor("server/nic")
	r.Emit(Event{At: 1_500_000, Kind: KindNakSend, Actor: a, QPN: 7, PSN: 12, Aux: 11, TC: 0})
	r.Emit(Event{At: 1_600_000, Kind: KindRewind, Actor: a, QPN: 7, Aux: 11, Val: 3, TC: -1})
	var buf strings.Builder
	if err := WriteText(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"psn.nak", "ack_psn=11", "psn.rewind", "resend=3", "server/nic", "qpn=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	var nilBuf strings.Builder
	if err := WriteText(&nilBuf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nilBuf.String(), "disabled") {
		t.Fatal("nil recorder timeline")
	}
}

func TestSummaryDigest(t *testing.T) {
	r := NewRecorder("sum", 8)
	r.Emit(Event{Kind: KindRetransmit, Dur: 1000})
	r.Emit(Event{Kind: KindCQE, Dur: 2000})
	s := Summary(r)
	for _, want := range []string{"nic.psn", "nic.cqe", "retx stall", "wqe latency"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(Summary(nil), "disabled") {
		t.Fatal("nil summary")
	}
}

// TestEmitZeroAlloc is the allocation guard behind the acceptance criterion:
// the disabled (nil-recorder) emit path — the exact call shape compiled into
// the NIC hot path — must not allocate, and the enabled path must stay
// allocation-free too so enabling tracing never perturbs GC behaviour.
func TestEmitZeroAlloc(t *testing.T) {
	var disabled *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		disabled.Emit(Event{At: 5, Kind: KindPSNSend, QPN: 65, PSN: 3, Val: 9, TC: 0})
	}); n != 0 {
		t.Fatalf("disabled emit allocates %.1f/op, want 0", n)
	}
	enabled := NewRecorder("hot", 1024)
	if n := testing.AllocsPerRun(1000, func() {
		enabled.Emit(Event{At: 5, Kind: KindRetransmit, QPN: 65, PSN: 3, Dur: 100, TC: 0})
	}); n != 0 {
		t.Fatalf("enabled emit allocates %.1f/op, want 0", n)
	}
}

func TestKindStringsTotal(t *testing.T) {
	for k := Kind(0); k < Kind(NumKinds); k++ {
		if k.String() == "" || k.String() == "kind?" && k != KindNone {
			t.Fatalf("kind %d missing a name", k)
		}
		if k.Category() == "" {
			t.Fatalf("kind %d missing a category", k)
		}
	}
}
