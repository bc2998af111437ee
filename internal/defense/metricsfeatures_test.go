package defense

import (
	"math"
	"testing"

	"github.com/thu-has/ragnar/internal/trace"
)

// emitDelays fills a recorder with per-TC dequeue delays around base (ps) and
// a spread of ULI samples, standing in for one monitoring window.
func emitDelays(r *trace.Recorder, base int64, n int) {
	a := r.RegisterActor("link")
	u := r.RegisterActor("uli")
	at := int64(0)
	for i := 0; i < n; i++ {
		at += 1_000_000
		r.Emit(trace.Event{At: at, Kind: trace.KindTCDequeue, Actor: a, TC: 3,
			Dur: base + int64(i%7)*base/64, Val: 256})
		r.Emit(trace.Event{At: at, Kind: trace.KindULISample, Actor: u, TC: -1,
			Val: math.Float64bits(900)})
	}
}

func TestMetricsFeaturesNilAndEmpty(t *testing.T) {
	if len(MetricsFeatures(nil)) != 0 {
		t.Fatal("nil registry must contribute no features")
	}
	r := trace.NewRecorder("empty", 16)
	if len(MetricsFeatures(r.Metrics())) != 0 {
		t.Fatal("empty registry must contribute no features")
	}
}

func TestMetricsFeaturesKeys(t *testing.T) {
	r := trace.NewRecorder("w", 1<<12)
	emitDelays(r, 2_000_000, 64) // 2 us queueing delay
	f := MetricsFeatures(r.Metrics())
	for _, k := range []string{"qdelay/3/p50", "qdelay/3/p99", "qdelay/3/mean",
		"uli_jitter/p50", "uli_jitter/p99"} {
		if _, ok := f[k]; !ok {
			t.Fatalf("missing feature %q in %v", k, f)
		}
	}
	if f["qdelay/3/p50"] <= 0 || f["qdelay/3/p99"] < f["qdelay/3/p50"] {
		t.Fatalf("quantiles out of order: %v", f)
	}
	// ULI samples arrive every 1 us: jitter p50 should sit in that decade.
	if f["uli_jitter/p50"] < 500 || f["uli_jitter/p50"] > 5000 {
		t.Fatalf("uli jitter p50 = %v ns, want ~1000", f["uli_jitter/p50"])
	}
	if _, ok := f["retx_stall/p99"]; ok {
		t.Fatal("no retransmissions were emitted, yet retx features appeared")
	}
}

// TestHarmonicOnLatencyFeatures: a detector trained on benign queueing-delay
// windows flags a window whose delay tail inflates — the signal volume
// counters cannot carry (the Grain-IV scenario: identical byte counts,
// stretched latency).
func TestHarmonicOnLatencyFeatures(t *testing.T) {
	var benign []map[string]float64
	for w := 0; w < 8; w++ {
		r := trace.NewRecorder("benign", 1<<12)
		emitDelays(r, 2_000_000+int64(w)*20_000, 64)
		benign = append(benign, MetricsFeatures(r.Metrics()))
	}
	h := TrainHarmonicVectors(benign)

	quiet := trace.NewRecorder("quiet", 1<<12)
	emitDelays(quiet, 2_050_000, 64)
	if s := h.ScoreVector(MetricsFeatures(quiet.Metrics())); s > h.Threshold {
		t.Fatalf("benign-like window scored %v > %v", s, h.Threshold)
	}

	loud := trace.NewRecorder("loud", 1<<12)
	emitDelays(loud, 40_000_000, 64) // 20x delay inflation, same event count
	if s := h.ScoreVector(MetricsFeatures(loud.Metrics())); s <= h.Threshold {
		t.Fatalf("latency-inflated window scored only %v", s)
	}
}
