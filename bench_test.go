// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact, reports the headline
// quantities as custom metrics, and prints the full rows/series once so
// `go test -bench=. -benchmem | tee bench_output.txt` doubles as the
// reproduction log. Set RAGNAR_FULL=1 for paper-scale parameter spaces.
package ragnar_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/experiments"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/pythia"
	"github.com/thu-has/ragnar/internal/uli"
)

func full() bool { return os.Getenv("RAGNAR_FULL") != "" }

// printOnce emits an experiment's rendered output exactly once per process.
var printed sync.Map

func printOnce(key, out string) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		fmt.Printf("\n----- %s -----\n%s\n", key, out)
	}
}

// BenchmarkTable1Taxonomy regenerates Table I (static taxonomy).
func BenchmarkTable1Taxonomy(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1().Render()
	}
	printOnce("Table I", out)
}

// BenchmarkTable3Adapters regenerates Table III (adapter parameters).
func BenchmarkTable3Adapters(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table3().Render()
	}
	printOnce("Table III", out)
}

// BenchmarkFig4PrioritySweep runs the Grain-I/II contention sweep at paper
// scale: all >6000 parameter combinations (the fluid solver makes the full
// space cheap).
func BenchmarkFig4PrioritySweep(b *testing.B) {
	var r experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(nic.CX4, true, 0)
	}
	b.ReportMetric(float64(r.Combos), "combos")
	printOnce("Figure 4 (CX-4)", r.Render())
	printOnce("Figure 4 (CX-5)", experiments.Fig4(nic.CX5, true, 0).Render())
	printOnce("Figure 4 (CX-6)", experiments.Fig4(nic.CX6, true, 0).Render())
}

// BenchmarkFig5InterMRULI measures ULI for same vs different remote MRs
// across message sizes (Figure 5).
func BenchmarkFig5InterMRULI(b *testing.B) {
	probes := 200
	if full() {
		probes = 600
	}
	var r experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig5(nic.CX4, probes, int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: the different-MR penalty at 512 B.
	for _, pt := range r.Points {
		if pt.MsgSize == 512 {
			b.ReportMetric(pt.DiffMR.Mean-pt.SameMR.Mean, "diffMR-delta-ns")
		}
	}
	printOnce("Figure 5", r.Render())
}

// BenchmarkFig6AbsOffset64B sweeps absolute offsets with 64 B reads.
func BenchmarkFig6AbsOffset64B(b *testing.B) {
	benchOffsets(b, "Figure 6", experiments.Fig6)
}

// BenchmarkFig7AbsOffset1KB sweeps absolute offsets with 1024 B reads.
func BenchmarkFig7AbsOffset1KB(b *testing.B) {
	benchOffsets(b, "Figure 7", experiments.Fig7)
}

// BenchmarkFig8RelOffset sweeps relative offsets (bank conflicts).
func BenchmarkFig8RelOffset(b *testing.B) {
	benchOffsets(b, "Figure 8", experiments.Fig8)
}

func benchOffsets(b *testing.B, name string, run func(nic.Profile, int, int64, int) (experiments.OffsetResult, error)) {
	b.Helper()
	probes := 200
	if full() {
		probes = 600
	}
	var r experiments.OffsetResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = run(nic.CX4, probes, int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Points)), "offsets")
	printOnce(name, r.Render())
}

// BenchmarkFig9PriorityChannel transmits the paper's bitstream over the
// priority channel on all NICs.
func BenchmarkFig9PriorityChannel(b *testing.B) {
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(int64(i)+1, 0)
	}
	worst := 0.0
	for _, run := range r.Runs {
		if run.Result.ErrorRate > worst {
			worst = run.Result.ErrorRate
		}
	}
	b.ReportMetric(worst*100, "error-%")
	printOnce("Figure 9", r.Render())
}

// BenchmarkFig10FoldedULI reproduces the deep-queue folded-ULI pattern.
func BenchmarkFig10FoldedULI(b *testing.B) {
	var r experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Figure 10", r.Render())
}

// BenchmarkFig11InterMR folds the inter-MR channel period on all NICs.
func BenchmarkFig11InterMR(b *testing.B) {
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig11(int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("Figure 11", r.Render())
}

// BenchmarkTable5CovertChannels evaluates all three covert channels on all
// three adapters.
func BenchmarkTable5CovertChannels(b *testing.B) {
	bits := 128
	if full() {
		bits = 1024
	}
	var r experiments.Table5Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table5(bits, int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Channel == "inter-MR(III)" && row.NIC == "ConnectX-6" {
			b.ReportMetric(row.BandwidthBps/1000, "CX6-interMR-Kbps")
			b.ReportMetric(row.ErrorRate*100, "CX6-interMR-err-%")
		}
	}
	printOnce("Table V", r.Render())
}

// BenchmarkLossGrid sweeps per-link wire loss against the ULI covert
// channels on CX-5 and reports how much effective bandwidth 1% loss leaves.
func BenchmarkLossGrid(b *testing.B) {
	bits, reps := 96, 2
	if full() {
		bits, reps = 512, 5
	}
	var r experiments.LossGridResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.LossGrid(nic.CX5, bits, reps, nil, int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range r.Cells {
		if c.Channel == "inter-MR(III)" && c.LossPct == 1 {
			b.ReportMetric(c.EffectiveBps, "interMR-1pct-eff-bps")
			b.ReportMetric(c.ErrorRate*100, "interMR-1pct-err-%")
		}
	}
	printOnce("Loss grid", r.Render())
}

// BenchmarkPythiaBaseline runs the persistent-channel baseline and reports
// the Ragnar/Pythia bandwidth factor (paper: 3.2x).
func BenchmarkPythiaBaseline(b *testing.B) {
	var r experiments.PythiaResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.PythiaCompare(64, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SpeedupX, "ragnar/pythia-x")
	printOnce("Pythia comparison", r.Render())
}

// BenchmarkFig12Fingerprint runs the shuffle/join fingerprint attack.
func BenchmarkFig12Fingerprint(b *testing.B) {
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12(nic.CX5, int64(i)+1)
	}
	ok := 0.0
	if r.ShuffleSeen.String() == "shuffle" && r.JoinSeen.String() == "join" && r.IdleSeen.String() == "null" {
		ok = 1
	}
	b.ReportMetric(ok, "all-detected")
	printOnce("Figure 12", r.Render())
}

// BenchmarkFig13Snoop runs the full snoop pipeline: dataset collection over
// the 17-candidate / 257-observation space, CNN training, evaluation.
// RAGNAR_FULL uses the paper's ~6720-trace corpus.
func BenchmarkFig13Snoop(b *testing.B) {
	perClass := 12
	if full() {
		perClass = 395
	}
	var r experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig13(nic.CX4, perClass, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Report.CNNAcc*100, "cnn-accuracy-%")
	b.ReportMetric(r.Report.CentroidAcc*100, "centroid-accuracy-%")
	printOnce("Figure 13", r.Render())
}

// BenchmarkDefenseEvasion evaluates the HARMONIC-style detector and the
// noise mitigation (Section VII).
func BenchmarkDefenseEvasion(b *testing.B) {
	var r experiments.DefenseResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.DefenseEval(nic.CX5, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	intra := r.FlaggedWindows["intra-MR(IV)"]
	b.ReportMetric(float64(intra[0]), "grainIV-flagged-windows")
	printOnce("Defense", r.Render())
}

// BenchmarkULILinearity verifies the methodology's core assumption at
// benchmark scale (Pearson ~ 0.9998 in the paper).
func BenchmarkULILinearity(b *testing.B) {
	var pearson float64
	for i := 0; i < b.N; i++ {
		c := lab.New(lab.DefaultConfig(nic.CX4))
		mr, err := c.RegisterServerMR(2 << 20)
		if err != nil {
			b.Fatal(err)
		}
		mk := func(depth int) *uli.Prober {
			conn, err := c.Dial(0, depth+2)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Warm(conn, mr); err != nil {
				b.Fatal(err)
			}
			return &uli.Prober{QP: conn.QP, CQ: conn.CQ, Remote: mr.Describe(0), MsgSize: 1024, Depth: depth}
		}
		rep, err := uli.VerifyLinearity(c.Eng, mk, []int{4, 8, 16, 32, 64, 128, 256}, 120)
		if err != nil {
			b.Fatal(err)
		}
		pearson = rep.Pearson
	}
	b.ReportMetric(pearson, "pearson")
	printOnce("ULI linearity", fmt.Sprintf("Pearson = %.5f (paper: 0.9998)", pearson))
}

// BenchmarkInterMRThroughput measures raw channel machinery cost: bits
// transmitted per wall-clock second of simulation.
func BenchmarkInterMRThroughput(b *testing.B) {
	payload := bitstream.RandomBits(7, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := covert.NewInterMRChannel(nic.CX5, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Transmit(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "bits/op")
}

// BenchmarkPythiaTransmit measures the baseline's machinery cost.
func BenchmarkPythiaTransmit(b *testing.B) {
	payload := bitstream.RandomBits(7, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := pythia.New(nic.CX5, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Transmit(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Robustness sweeps shuffle sizes and join round counts
// against a fixed detector (the paper's "different round times and
// configurations" observation).
func BenchmarkFig12Robustness(b *testing.B) {
	var r experiments.Fig12RobustnessResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12Robustness(nic.CX5, int64(i)+1)
	}
	b.ReportMetric(float64(r.Correct)/float64(r.Total)*100, "detect-%")
	printOnce("Figure 12 robustness", r.Render())
}
