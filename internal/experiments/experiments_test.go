package experiments

import (
	"strings"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sidechan"
)

func TestTable1Complete(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table I has %d rows, want 6", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Work != "RAGNAR" || last.Channel != "Volatile" || last.Stealth != "High" {
		t.Fatalf("RAGNAR row wrong: %+v", last)
	}
	out := rows.Render()
	if !strings.Contains(out, "Pythia") || !strings.Contains(out, "I/II/III/IV") {
		t.Fatal("render incomplete")
	}
}

func TestRenderTable3(t *testing.T) {
	out := Table3().Render()
	for _, want := range []string{"25Gbps", "100Gbps", "200Gbps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestFig4SubsetShowsKeyFindings(t *testing.T) {
	r := Fig4(nic.CX4, false, 0)
	if len(r.Cells) == 0 {
		t.Fatal("empty sweep")
	}
	out := r.Render()
	if !strings.Contains(out, "KF1") {
		t.Fatalf("KF1 line missing:\n%s", out)
	}
	if !strings.Contains(out, "KF2") {
		t.Fatalf("KF2 line missing:\n%s", out)
	}
}

func TestFig5RunsAndOrdersMRs(t *testing.T) {
	r, err := Fig5(nic.CX4, 120, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		if pt.DiffMR.Mean <= pt.SameMR.Mean {
			t.Fatalf("size %d: diff-MR not slower", pt.MsgSize)
		}
	}
	if !strings.Contains(r.Render(), "Figure 5") {
		t.Fatal("render broken")
	}
}

func TestFig9AllNICsZeroError(t *testing.T) {
	r := Fig9(7, 0)
	for name, run := range r.Runs {
		if run.Result.ErrorRate != 0 {
			t.Errorf("%s: error %.2f", name, run.Result.ErrorRate)
		}
	}
	if !strings.Contains(r.Render(), "decoded") {
		t.Fatal("render broken")
	}
}

func TestTable5ShapesMatchPaper(t *testing.T) {
	r, err := Table5(96, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("Table V has %d rows, want 9", len(r.Rows))
	}
	byKey := map[string]Table5Row{}
	for _, row := range r.Rows {
		byKey[row.Channel+"/"+row.NIC] = row
	}
	// Ordering claims: inter-MR bandwidth CX-6 > CX-5 > CX-4.
	i4 := byKey["inter-MR(III)/ConnectX-4"].BandwidthBps
	i5 := byKey["inter-MR(III)/ConnectX-5"].BandwidthBps
	i6 := byKey["inter-MR(III)/ConnectX-6"].BandwidthBps
	if !(i6 > i5 && i5 > i4) {
		t.Fatalf("inter-MR bandwidth ordering: %v %v %v", i4, i5, i6)
	}
	// Priority channel: ~1 bps, error-free.
	pr := byKey["priority(I+II)/ConnectX-4"]
	if pr.BandwidthBps > 2 || pr.ErrorRate != 0 {
		t.Fatalf("priority row: %+v", pr)
	}
	// Error rates stay single-digit percent on the fast channels.
	for k, row := range byKey {
		if strings.HasPrefix(k, "priority") {
			continue
		}
		if row.ErrorRate > 0.12 {
			t.Errorf("%s error rate %.1f%%", k, row.ErrorRate*100)
		}
		if row.EffectiveBps >= row.BandwidthBps && row.ErrorRate > 0 {
			t.Errorf("%s effective >= raw despite errors", k)
		}
	}
}

func TestPythiaCompare32x(t *testing.T) {
	r, err := PythiaCompare(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedupX < 2.8 || r.SpeedupX > 3.6 {
		t.Fatalf("speedup %.2fx, paper reports 3.2x", r.SpeedupX)
	}
}

func TestFig12DetectsBoth(t *testing.T) {
	r := Fig12(nic.CX5, 9)
	if r.ShuffleSeen != sidechan.PatternShuffle {
		t.Errorf("shuffle seen as %v", r.ShuffleSeen)
	}
	if r.JoinSeen != sidechan.PatternJoin {
		t.Errorf("join seen as %v", r.JoinSeen)
	}
	if r.IdleSeen != sidechan.PatternNull {
		t.Errorf("idle seen as %v", r.IdleSeen)
	}
	if !strings.Contains(r.Render(), "shuffle") {
		t.Fatal("render broken")
	}
}

func TestFig10FoldedBimodal(t *testing.T) {
	r, err := Fig10(11)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1.0, 0.0
	for _, v := range r.Folded.Mean {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("folded trace flat: [%v, %v]", lo, hi)
	}
}

func TestDefenseEvalContrast(t *testing.T) {
	r, err := DefenseEval(nic.CX5, 13)
	if err != nil {
		t.Fatal(err)
	}
	inter := r.FlaggedWindows["inter-MR(III)"]
	intra := r.FlaggedWindows["intra-MR(IV)"]
	if inter[0] == 0 {
		t.Error("Grain-III channel should be flagged by counters")
	}
	if intra[0] > 1 {
		t.Errorf("Grain-IV channel flagged %d times; should evade", intra[0])
	}
	if len(r.Noise) < 3 {
		t.Fatal("noise sweep too small")
	}
	first, last := r.Noise[0], r.Noise[len(r.Noise)-1]
	if !(last.ChannelErrorRate > first.ChannelErrorRate) {
		t.Error("noise should raise channel error")
	}
	if !(last.LatencyInflation > 1.05) {
		t.Error("noise should cost latency")
	}
}

func TestFig12Robustness(t *testing.T) {
	r := Fig12Robustness(nic.CX5, 7)
	if r.Correct < r.Total-1 {
		t.Fatalf("detector robustness %d/%d: %v", r.Correct, r.Total, r.Mistakes)
	}
	if r.Total < 9 {
		t.Fatalf("sweep too small: %d variants", r.Total)
	}
}

func TestFig6Fig7Fig8Smoke(t *testing.T) {
	r6, err := Fig6(nic.CX4, 60, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r6.Points) == 0 || !strings.Contains(r6.Render(), "Figure 6") {
		t.Fatal("fig6 empty")
	}
	r7, err := Fig7(nic.CX4, 60, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 B reads run multiple TPU beats: ULI sits above the 64 B sweep.
	if r7.Points[0].Trace.Mean <= r6.Points[0].Trace.Mean {
		t.Fatalf("1KB ULI (%.0f) not above 64B ULI (%.0f)",
			r7.Points[0].Trace.Mean, r6.Points[0].Trace.Mean)
	}
	r8, err := Fig8(nic.CX4, 60, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r8.Points) < 10 {
		t.Fatal("fig8 sweep too small")
	}
}

func TestFig11AllNICs(t *testing.T) {
	r, err := Fig11(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Folds) != 3 {
		t.Fatalf("folds for %d NICs", len(r.Folds))
	}
	if !strings.Contains(r.Render(), "ConnectX-6") {
		t.Fatal("render incomplete")
	}
}

func TestFig13SmallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("snoop pipeline is slow")
	}
	r, err := Fig13(nic.CX4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Traces != 3*17 {
		t.Fatalf("traces = %d", r.Report.Traces)
	}
	if !strings.Contains(r.Render(), "accuracy") {
		t.Fatal("render incomplete")
	}
}
