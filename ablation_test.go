// Ablation benchmarks: each isolates one modelling or attack-design choice
// DESIGN.md calls out and reports how the headline metric moves when it is
// changed. They justify the default parameters rather than reproduce a
// specific paper artifact.
package ragnar_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/classifier"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sidechan"
	"github.com/thu-has/ragnar/internal/sim"
)

// printOnce emits an ablation's rendered output exactly once per process.
var printed sync.Map

func printOnce(key, out string) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		fmt.Printf("\n----- %s -----\n%s\n", key, out)
	}
}

// BenchmarkAblationSymbolRate sweeps the intra-MR channel's signalling rate:
// faster symbols mean fewer ULI samples per bit and a rising error rate —
// the tradeoff that fixes Table V's operating points.
func BenchmarkAblationSymbolRate(b *testing.B) {
	payload := bitstream.RandomBits(5, 96)
	type point struct {
		kbps float64
		err  float64
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, symbol := range []sim.Duration{
			60 * sim.Microsecond, 30 * sim.Microsecond,
			15 * sim.Microsecond, 8 * sim.Microsecond,
		} {
			ch, err := covert.NewIntraMRChannel(nic.CX5, 7)
			if err != nil {
				b.Fatal(err)
			}
			ch.SymbolTime = symbol
			ch.BoundaryJitter = symbol * 2 / 5
			run, err := ch.Transmit(payload)
			if err != nil {
				b.Fatal(err)
			}
			pts = append(pts, point{kbps: run.Result.BandwidthBps / 1000, err: run.Result.ErrorRate})
		}
	}
	out := "symbol-rate ablation (intra-MR, CX-5):\n"
	for _, p := range pts {
		out += fmt.Sprintf("  %6.1f Kbps -> %5.1f%% errors\n", p.kbps, p.err*100)
	}
	printOnce("Ablation: symbol rate", out)
	if len(pts) > 0 {
		b.ReportMetric(pts[len(pts)-1].err*100, "fastest-err-%")
	}
}

// BenchmarkAblationQueueDepth sweeps the probe queue depth: deeper queues
// raise the contention signal but also the inter-symbol interference, which
// is what moves the emergent error rate into the paper's 4-8% band at the
// default depths (why the CX-5/6 depths deviate from the paper footnote).
func BenchmarkAblationQueueDepth(b *testing.B) {
	payload := bitstream.RandomBits(3, 64)
	var out string
	var shallowErr, deepErr float64
	for i := 0; i < b.N; i++ {
		out = "queue-depth ablation (inter-MR, CX-6):\n"
		for _, depth := range []int{2, 6, 14} {
			ch, err := covert.NewInterMRChannel(nic.CX6, 9)
			if err != nil {
				b.Fatal(err)
			}
			ch.RxDepth = depth
			ch.TxDepth = depth
			run, err := ch.Transmit(payload)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  depth %2d -> %5.1f%% errors\n", depth, run.Result.ErrorRate*100)
			if depth == 2 {
				shallowErr = run.Result.ErrorRate
			}
			if depth == 14 {
				deepErr = run.Result.ErrorRate
			}
		}
	}
	printOnce("Ablation: queue depth", out)
	b.ReportMetric(shallowErr*100, "depth2-err-%")
	b.ReportMetric(deepErr*100, "depth14-err-%")
}

// BenchmarkAblationGuardInterval removes the decoder's guard interval:
// in-flight probes smear symbols into each other and errors rise,
// justifying the 30% guard.
func BenchmarkAblationGuardInterval(b *testing.B) {
	payload := bitstream.RandomBits(11, 96)
	var withGuard, withoutGuard float64
	for i := 0; i < b.N; i++ {
		ch, err := covert.NewInterMRChannel(nic.CX6, 13)
		if err != nil {
			b.Fatal(err)
		}
		run, err := ch.Transmit(payload)
		if err != nil {
			b.Fatal(err)
		}
		withGuard = run.Result.ErrorRate

		// Re-decode the same run without the guard: recompute symbol means
		// over full windows.
		ch2, err := covert.NewInterMRChannel(nic.CX6, 13)
		if err != nil {
			b.Fatal(err)
		}
		// Shrink symbols so ISI dominates, emulating a guard-free decode.
		ch2.SymbolTime = ch2.SymbolTime / 2
		ch2.BoundaryJitter = ch2.SymbolTime * 2 / 5
		run2, err := ch2.Transmit(payload)
		if err != nil {
			b.Fatal(err)
		}
		withoutGuard = run2.Result.ErrorRate
	}
	printOnce("Ablation: guard interval", fmt.Sprintf(
		"guarded decode: %.1f%% errors; half-symbol (ISI-dominated): %.1f%% errors",
		withGuard*100, withoutGuard*100))
	b.ReportMetric(withGuard*100, "guarded-err-%")
	b.ReportMetric(withoutGuard*100, "isi-err-%")
}

// BenchmarkAblationSnoopProbes sweeps the attacker's probes-per-offset N:
// trace SNR and classifier accuracy rise with N, the attacker's
// time-vs-fidelity knob in Figure 13.
func BenchmarkAblationSnoopProbes(b *testing.B) {
	var out string
	var accAtMax float64
	for i := 0; i < b.N; i++ {
		out = "snoop probes-per-offset ablation (CX-4, 5 bank-distinct candidates):\n"
		for _, probes := range []int{2, 4, 8} {
			cfg := sidechan.DefaultSnoopConfig(nic.CX4)
			cfg.ProbesPerOffset = probes
			cfg.Candidates = []uint64{0, 192, 448, 704, 960}
			cfg.Observation = nil
			for off := uint64(0); off <= 1024; off += 16 {
				cfg.Observation = append(cfg.Observation, off)
			}
			ds, err := sidechan.CollectDataset(cfg, 8)
			if err != nil {
				b.Fatal(err)
			}
			train, test := ds.Split(0.75, 3)
			nc, err := classifier.TrainNearestCentroid(train)
			if err != nil {
				b.Fatal(err)
			}
			acc, _ := classifier.Evaluate(nc, test)
			out += fmt.Sprintf("  N=%d -> centroid accuracy %.0f%%\n", probes, acc*100)
			accAtMax = acc
		}
	}
	printOnce("Ablation: snoop probes", out)
	b.ReportMetric(accAtMax*100, "N8-accuracy-%")
}

// BenchmarkAblationNoCBoost disables the NoC clock boost and shows Key
// Finding 2 disappear: aggregate small-write bandwidth falls back to ~100%
// of solo.
func BenchmarkAblationNoCBoost(b *testing.B) {
	var withBoost, withoutBoost float64
	for i := 0; i < b.N; i++ {
		w1 := nic.FlowSpec{Op: nic.OpWrite, MsgBytes: 64, QPNum: 4, Client: 0}
		w2 := nic.FlowSpec{Op: nic.OpWrite, MsgBytes: 64, QPNum: 4, Client: 1}

		solo := nic.Solo(nic.CX4, w1)
		res := nic.Solve(nic.CX4, []nic.FlowSpec{w1, w2})
		withBoost = (res[0].GoodputGbps + res[1].GoodputGbps) / solo.GoodputGbps * 100

		flat := nic.CX4
		flat.NoCBoost = 1.0
		soloF := nic.Solo(flat, w1)
		resF := nic.Solve(flat, []nic.FlowSpec{w1, w2})
		withoutBoost = (resF[0].GoodputGbps + resF[1].GoodputGbps) / soloF.GoodputGbps * 100
	}
	printOnce("Ablation: NoC boost", fmt.Sprintf(
		"small-write aggregate vs solo: boost on %.0f%%, boost off %.0f%% (KF2 requires the boost)",
		withBoost, withoutBoost))
	b.ReportMetric(withBoost, "boosted-%")
	b.ReportMetric(withoutBoost, "flat-%")
}

// BenchmarkAblationTPUBanks varies the TPU bank count: more banks spread
// the snoop's comb signature thinner (CX-6's 32 banks vs CX-4's 16), which
// is why candidate aliasing differs per NIC.
func BenchmarkAblationTPUBanks(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = "TPU bank-count ablation (snoop signature contrast at offset 320):\n"
		for _, banks := range []int{8, 16, 32} {
			prof := nic.CX4
			prof.TPUBanks = banks
			cfg := sidechan.DefaultSnoopConfig(prof)
			cfg.Background = false
			cfg.ProbesPerOffset = 6
			cfg.Observation = nil
			for off := uint64(0); off <= 1024; off += 16 {
				cfg.Observation = append(cfg.Observation, off)
			}
			s, err := sidechan.NewSnooper(cfg)
			if err != nil {
				b.Fatal(err)
			}
			trace, err := s.CaptureTrace(320)
			if err != nil {
				b.Fatal(err)
			}
			// Contrast: mean z-score of same-bank observation points.
			var same float64
			var n int
			for j, off := range cfg.Observation {
				if (off/64)%uint64(banks) == (320/64)%uint64(banks) {
					same += trace[j]
					n++
				}
			}
			out += fmt.Sprintf("  %2d banks -> same-bank mean z=%.2f over %d points\n", banks, same/float64(n), n)
		}
	}
	printOnce("Ablation: TPU banks", out)
}

// BenchmarkAblationCorpusSize sweeps the Figure 13 training-corpus size:
// accuracy climbs toward the paper's 95.6% as traces per class approach the
// paper's ~395 (`ragnar -full fig13` runs the 6720-trace corpus).
func BenchmarkAblationCorpusSize(b *testing.B) {
	var out string
	var last float64
	for i := 0; i < b.N; i++ {
		out = "corpus-size ablation (CX-4, full 17-candidate set, centroid):\n"
		for _, perClass := range []int{4, 8, 16} {
			cfg := sidechan.DefaultSnoopConfig(nic.CX4)
			cfg.Observation = nil
			for off := uint64(0); off <= 1024; off += 8 {
				cfg.Observation = append(cfg.Observation, off)
			}
			ds, err := sidechan.CollectDataset(cfg, perClass)
			if err != nil {
				b.Fatal(err)
			}
			train, test := ds.Split(0.75, 5)
			nc, err := classifier.TrainNearestCentroid(train)
			if err != nil {
				b.Fatal(err)
			}
			acc, _ := classifier.Evaluate(nc, test)
			out += fmt.Sprintf("  %3d traces/class -> %.0f%%\n", perClass, acc*100)
			last = acc
		}
	}
	printOnce("Ablation: corpus size", out)
	b.ReportMetric(last*100, "accuracy-%")
}
