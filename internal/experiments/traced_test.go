package experiments

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/trace"
)

// TestTraceFig9ChromeSchema is the CLI acceptance check: `ragnar trace fig9`
// must emit JSON that chrome://tracing loads. The schema rules: a top-level
// traceEvents array; every event has name, ph, pid, tid and a numeric ts;
// complete events (X) carry dur; counter events (C) carry a numeric value
// arg; instants (i) carry a scope.
func TestTraceFig9ChromeSchema(t *testing.T) {
	o, err := TraceFig9(nic.CX4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("fig9 trace has no events")
	}
	var counters, instants int
	for i, ev := range file.TraceEvents {
		for _, req := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[req]; !ok {
				t.Fatalf("event %d missing %q: %v", i, req, ev)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatal(err)
		}
		switch ph {
		case "C":
			counters++
			var args struct {
				Value *float64 `json:"value"`
			}
			if err := json.Unmarshal(ev["args"], &args); err != nil || args.Value == nil {
				t.Fatalf("counter event %d lacks numeric value: %s", i, ev["args"])
			}
		case "i":
			instants++
			if _, ok := ev["s"]; !ok {
				t.Fatalf("instant event %d lacks scope", i)
			}
		}
	}
	if counters == 0 {
		t.Fatal("fig9 trace should carry the monitor bandwidth counter track")
	}
	if instants == 0 {
		t.Fatal("fig9 trace should carry sender symbol instants")
	}
}

// TestTracedInterMRMatchesUntraced is the e2e regression for passivity:
// attaching the flight recorder to the whole inter-MR rig must not move a
// single simulated event — the decoded bitstream and every ULI sample stay
// byte-identical to the untraced twin.
func TestTracedInterMRMatchesUntraced(t *testing.T) {
	const seed = 7
	payload := bitstream.RandomBits(uint64(seed)|1, 24)

	plain, err := covert.NewInterMRChannel(nic.CX4, seed)
	if err != nil {
		t.Fatal(err)
	}
	goldenRun, err := plain.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}

	traced, err := covert.NewInterMRChannel(nic.CX4, seed)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("regression", trace.DefaultCapacity)
	traced.Cluster.AttachRecorder(rec)
	tracedRun, err := traced.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}

	if goldenRun.Decoded.String() != tracedRun.Decoded.String() {
		t.Fatalf("tracing perturbed the decode:\n untraced %s\n traced   %s",
			goldenRun.Decoded, tracedRun.Decoded)
	}
	if len(goldenRun.Samples) != len(tracedRun.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(goldenRun.Samples), len(tracedRun.Samples))
	}
	for i := range goldenRun.Samples {
		if goldenRun.Samples[i] != tracedRun.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, goldenRun.Samples[i], tracedRun.Samples[i])
		}
	}
	if rec.Total() == 0 {
		t.Fatal("traced run recorded nothing")
	}
	// AttachRecorder alone brings in the sender's and the sampler's lanes.
	if m := rec.Metrics(); m.Count(trace.KindSymbol) == 0 || m.Count(trace.KindULISample) == 0 {
		t.Fatalf("traced run lacks covert/tx or uli/sampler events: symbols=%d samples=%d",
			m.Count(trace.KindSymbol), m.Count(trace.KindULISample))
	}
}

// TestTracedFig9MatchesUntraced covers the fluid-model channel: the trace
// hook must not consume the channel's RNG stream.
func TestTracedFig9MatchesUntraced(t *testing.T) {
	plain := covert.NewPriorityChannel(nic.CX5).Transmit(Fig9Bits, 3)
	ch := covert.NewPriorityChannel(nic.CX5)
	ch.Trace = trace.NewRecorder("fig9", trace.DefaultCapacity)
	traced := ch.Transmit(Fig9Bits, 3)
	if plain.Decoded.String() != traced.Decoded.String() {
		t.Fatal("tracing perturbed the fig9 decode")
	}
	if len(plain.Trace) != len(traced.Trace) {
		t.Fatal("tracing changed the bandwidth series length")
	}
	for i := range plain.Trace {
		if plain.Trace[i] != traced.Trace[i] {
			t.Fatalf("bandwidth sample %d differs", i)
		}
	}
}

// TestTraceLossRepShowsRecovery: the lossy trace contains the go-back-N
// chains EXPERIMENTS.md teaches readers to find — NAKs, rewinds and
// retransmit spans — and its Chrome export stays loadable.
func TestTraceLossRepShowsRecovery(t *testing.T) {
	o, err := TraceLossRep(nic.CX4, 0.5, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := o.Recorder.Metrics()
	if m.Count(trace.KindNakSend) == 0 || m.Count(trace.KindRewind) == 0 ||
		m.Count(trace.KindRetransmit) == 0 {
		t.Fatalf("lossy trace missing recovery events: naks=%d rewinds=%d retx=%d",
			m.Count(trace.KindNakSend), m.Count(trace.KindRewind), m.Count(trace.KindRetransmit))
	}
	var buf bytes.Buffer
	if err := o.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("lossy trace export is not valid JSON")
	}
}

// TestTraceExportsPinned hashes (FNV-64a) the text and Chrome exports of
// every traced rig on CX-5 at seed 1. The recorder is passive, so a change
// that keeps the schedule keeps these bytes; one that moves an event, a
// field or the export format re-records them with the reason.
func TestTraceExportsPinned(t *testing.T) {
	want := map[string][2]uint64{
		"fig9":     {0x493abe9c3bae7f64, 0x3b07bc4fb0305067},
		"intermr":  {0x4a1a2d7fbafd3cbc, 0xf74c4447d2dd99b7},
		"intramr":  {0xa9289a728a1f6fca, 0x9f02503adcc707e0},
		"lossgrid": {0xb4736ab3407739a0, 0xa57491d6bedb2006},
	}
	for _, rig := range TraceRigs {
		t.Run(rig, func(t *testing.T) {
			o, err := Trace(rig, nic.CX5, 1)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]uint64
			for i, write := range []func(io.Writer) error{o.WriteText, o.WriteChrome} {
				h := fnv.New64a()
				if err := write(h); err != nil {
					t.Fatal(err)
				}
				got[i] = h.Sum64()
			}
			if got != want[rig] {
				t.Errorf("text/chrome digests %#016x/%#016x; want %#016x/%#016x",
					got[0], got[1], want[rig][0], want[rig][1])
			}
		})
	}
}
