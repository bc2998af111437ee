package covert

import (
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
)

func TestFold(t *testing.T) {
	// Square wave with period 2: fold should separate the halves.
	var times, vals []float64
	for i := 0; i < 400; i++ {
		tm := float64(i) * 0.01
		times = append(times, tm)
		ph := tm / 2
		ph -= float64(int(ph))
		if ph < 0.5 {
			vals = append(vals, 10)
		} else {
			vals = append(vals, 20)
		}
	}
	tr := Fold(times, vals, 2, 16)
	if len(tr.Phase) != 16 {
		t.Fatalf("bins = %d", len(tr.Phase))
	}
	if tr.Mean[0] > 0.1 || tr.Mean[15] < 0.9 {
		t.Fatalf("fold halves not separated: %v", tr.Mean)
	}
}

func TestDecodeByThreshold(t *testing.T) {
	means := []float64{10, 20, 10, 20, 20}
	bits := decodeByThreshold(means, true)
	if bits.String() != "01011" {
		t.Fatalf("decoded %s", bits)
	}
	bits = decodeByThreshold(means, false)
	if bits.String() != "10100" {
		t.Fatalf("inverted decode %s", bits)
	}
}

func TestPriorityChannelZeroError(t *testing.T) {
	// Figure 9's bitstream on all three NICs: error rate 0.00%.
	msg := bitstream.MustParseBits("1101111101010010")
	for _, p := range nic.PaperProfiles {
		ch := NewPriorityChannel(p)
		run := ch.Transmit(msg, 5)
		if run.Result.ErrorRate != 0 {
			t.Errorf("%s: priority channel error rate %.2f%%, paper reports 0%%",
				p.Name, run.Result.ErrorRate*100)
		}
		if run.Result.BandwidthBps < 0.9 || run.Result.BandwidthBps > 1.2 {
			t.Errorf("%s: bandwidth %.2f bps, want ~1 bps", p.Name, run.Result.BandwidthBps)
		}
		if len(run.Trace) == 0 {
			t.Errorf("%s: empty Figure 9 trace", p.Name)
		}
	}
}

func TestPriorityChannelTraceShape(t *testing.T) {
	// Bit 0 windows must show the significant drop relative to bit 1.
	ch := NewPriorityChannel(nic.CX5)
	run := ch.Transmit(bitstream.MustParseBits("10"), 3)
	n := len(run.Trace)
	bw1 := stats.Mean(traceBW(run.Trace[:n/2]))
	bw0 := stats.Mean(traceBW(run.Trace[n/2:]))
	if bw0 >= bw1*0.9 {
		t.Fatalf("bit0 bandwidth %.2f not clearly below bit1 %.2f", bw0, bw1)
	}
}

func traceBW(ps []TimePoint) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.BW
	}
	return out
}

func TestInterMRChannel(t *testing.T) {
	msg := bitstream.RandomBits(77, 64)
	for _, p := range nic.PaperProfiles {
		ch, err := NewInterMRChannel(p, 21)
		if err != nil {
			t.Fatal(err)
		}
		run, err := ch.Transmit(msg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if run.Result.ErrorRate > 0.15 {
			t.Errorf("%s: inter-MR error rate %.1f%%, want <= 15%%", p.Name, run.Result.ErrorRate*100)
		}
		if run.Result.EffectiveBps <= 0 {
			t.Errorf("%s: non-positive effective bandwidth", p.Name)
		}
	}
}

func TestInterMRBandwidthsMatchTableV(t *testing.T) {
	// Table V raw bandwidths: CX-4 31.8, CX-5 63.6, CX-6 84.3 Kbps.
	want := map[string]float64{"ConnectX-4": 31800, "ConnectX-5": 63600, "ConnectX-6": 84300}
	for _, p := range nic.PaperProfiles {
		ch, err := NewInterMRChannel(p, 9)
		if err != nil {
			t.Fatal(err)
		}
		got := 1.0 / ch.SymbolTime.Seconds()
		w := want[p.Name]
		if got < w*0.97 || got > w*1.03 {
			t.Errorf("%s: raw bandwidth %.0f, want ~%.0f", p.Name, got, w)
		}
	}
}

func TestIntraMRChannel(t *testing.T) {
	msg := bitstream.RandomBits(123, 64)
	for _, p := range nic.PaperProfiles {
		ch, err := NewIntraMRChannel(p, 33)
		if err != nil {
			t.Fatal(err)
		}
		run, err := ch.Transmit(msg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if run.Result.ErrorRate > 0.15 {
			t.Errorf("%s: intra-MR error rate %.1f%%, want <= 15%%", p.Name, run.Result.ErrorRate*100)
		}
	}
}

// The Ragnar headline: inter-MR bandwidth on CX-5 is ~3.2x Pythia's
// 20 Kbps (checked against the constant here; the pythia package holds the
// baseline implementation).
func TestRagnarVsPythiaFactor(t *testing.T) {
	ch, err := NewInterMRChannel(nic.CX5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ragnar := 1.0 / ch.SymbolTime.Seconds()
	factor := ragnar / 20000.0
	if factor < 3.0 || factor > 3.4 {
		t.Fatalf("Ragnar/Pythia factor = %.2f, paper reports 3.2x", factor)
	}
}

func TestULIChannelValidation(t *testing.T) {
	ch, err := NewInterMRChannel(nic.CX4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Transmit(nil); err == nil {
		t.Fatal("empty bitstream should error")
	}
	ch.SymbolTime = 0
	if _, err := ch.Transmit(bitstream.MustParseBits("10")); err == nil {
		t.Fatal("zero symbol time should error")
	}
}

func TestFoldedTraceShowsTwoLevels(t *testing.T) {
	// Figure 10/11: a periodic 1-0 pattern folds into a two-level shape.
	ch, err := NewInterMRChannel(nic.CX4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pattern := make(bitstream.Bits, 40)
	for i := range pattern {
		pattern[i] = byte(i % 2)
	}
	ch.BoundaryJitter = 0 // clean fold for the figure
	run, err := ch.Transmit(pattern)
	if err != nil {
		t.Fatal(err)
	}
	// First-half phase bins (bit 1... pattern starts with 0) vs second half
	// must separate clearly after normalisation.
	lo := stats.Mean(run.Folded.Mean[2:14])
	hi := stats.Mean(run.Folded.Mean[18:30])
	if lo > 0.4 || hi < 0.6 {
		t.Fatalf("folded trace not bimodal: lo=%.2f hi=%.2f (%v)", lo, hi, run.Folded.Mean)
	}
}

// TestInterMRChannelOnStar runs the Grain-III channel across a shared
// switch: sender and receiver sit on separate star ports, so every covert
// read and every probe traverses the switch. The channel survives because
// the latency it modulates lives in the server RNIC's translation pipeline —
// the switch only adds a constant forwarding delay.
func TestInterMRChannelOnStar(t *testing.T) {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Seed = 21
	ch, err := NewInterMRChannelOn(lab.Star(cfg))
	if err != nil {
		t.Fatal(err)
	}
	run, err := ch.Transmit(bitstream.RandomBits(77, 64))
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.ErrorRate > 0.15 {
		t.Errorf("star inter-MR error rate %.1f%%, want <= 15%%", run.Result.ErrorRate*100)
	}
	if ch.Cluster.Switches[0].FwdPackets() == 0 {
		t.Error("no packets traversed the switch")
	}
}

// TestChannelOnNeedsTwoClients pins the On-variant's topology validation.
func TestChannelOnNeedsTwoClients(t *testing.T) {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Clients = 1
	if _, err := NewInterMRChannelOn(lab.Star(cfg)); err == nil {
		t.Fatal("1-client topology should be rejected")
	}
	if _, err := NewIntraMRChannelOn(lab.Star(cfg)); err == nil {
		t.Fatal("1-client topology should be rejected")
	}
}

// TestULIChannelBlankWindows runs symbols shorter than the receiver's first
// probe round trip: the leading windows have no samples and take the first
// observed window's mean. Only a transmission with no samples at all fails.
func TestULIChannelBlankWindows(t *testing.T) {
	ch, err := NewIntraMRChannel(nic.CX6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch.SymbolTime = sim.Microsecond
	ch.BoundaryJitter = 0
	start := ch.Cluster.Eng.Now()
	run, err := ch.Transmit(bitstream.MustParseBits("1010101010101010"))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) == 0 {
		t.Fatal("no samples")
	}
	first := int(run.Samples[0].At.Sub(start) / ch.SymbolTime)
	if first < 1 || first >= len(run.SymbolMeans) {
		t.Fatalf("first sample in window %d; the test needs a blank window 0", first)
	}
	for k := 0; k < first; k++ {
		if run.SymbolMeans[k] != run.SymbolMeans[first] {
			t.Fatalf("blank window %d mean %v, want window %d's %v", k, run.SymbolMeans[k], first, run.SymbolMeans[first])
		}
	}

	ch, err = NewIntraMRChannel(nic.CX6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch.SymbolTime = 10 * sim.Nanosecond
	if _, err := ch.Transmit(bitstream.MustParseBits("10")); err == nil {
		t.Fatal("a transmission without samples should error")
	}
}
