package defense

import (
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/telemetry"
)

// channelSnapshots runs a ULI covert channel while snapshotting the server
// NIC's counters every window, returning the per-window deltas.
func channelSnapshots(t *testing.T, ch *covert.ULIChannel, bits bitstream.Bits, windows int) []Snapshot {
	t.Helper()
	eng := ch.Cluster.Eng
	server := ch.Cluster.Server.NIC()
	var series []Snapshot
	total := ch.SymbolTime * sim.Duration(len(bits))
	window := total / sim.Duration(windows)
	series = append(series, telemetry.Snap(eng, server))
	for w := 1; w <= windows; w++ {
		eng.At(eng.Now().Add(window*sim.Duration(w)), func() {
			series = append(series, telemetry.Snap(eng, server))
		})
	}
	if _, err := ch.Transmit(bits); err != nil {
		t.Fatal(err)
	}
	return telemetry.WindowedDeltas(series)
}

// benignSnapshots runs the channel with all-zero bits (steady benign-like
// traffic) to train the detector baseline.
func benignTrainingDeltas(t *testing.T, mk func() *covert.ULIChannel, windows int) []Snapshot {
	t.Helper()
	ch := mk()
	zero := make(bitstream.Bits, 24)
	return channelSnapshots(t, ch, zero, windows)
}

func TestHarmonicDetectsInterMRChannel(t *testing.T) {
	mk := func() *covert.ULIChannel {
		ch, err := covert.NewInterMRChannel(nic.CX5, 11)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	// Baseline: constant-state traffic (the benign look of this tenant).
	h := TrainHarmonic(benignTrainingDeltas(t, mk, 24))
	// Live: alternating bits flip the per-MR counters window to window.
	ch := mk()
	deltas := channelSnapshots(t, ch, bitstream.RandomBits(3, 24), 24)
	flagged := 0
	for _, d := range deltas {
		if h.Detect(d) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("HARMONIC-style Grain-III counters should flag the inter-MR channel")
	}
}

func TestIntraMRChannelEvadesHarmonic(t *testing.T) {
	mk := func() *covert.ULIChannel {
		ch, err := covert.NewIntraMRChannel(nic.CX5, 13)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	h := TrainHarmonic(benignTrainingDeltas(t, mk, 24))
	ch := mk()
	deltas := channelSnapshots(t, ch, bitstream.RandomBits(5, 24), 24)
	flagged := 0
	for _, d := range deltas {
		if h.Detect(d) {
			flagged++
		}
	}
	// Grain-IV evasion: the offsets the sender touches do not appear in any
	// Grain-I..III counter, so windows look identical to the baseline.
	if flagged > 1 {
		t.Fatalf("intra-MR channel flagged in %d/%d windows; Grain-IV should evade counters", flagged, len(deltas))
	}
}

func TestScoreUnseenMetricSuspicious(t *testing.T) {
	h := TrainHarmonic([]Snapshot{
		{Counters: nic.Counters{PerMRBytes: map[uint32]uint64{1: 100}}},
		{Counters: nic.Counters{PerMRBytes: map[uint32]uint64{1: 110}}},
	})
	score := h.Score(Snapshot{Counters: nic.Counters{PerMRBytes: map[uint32]uint64{99: 5000}}})
	if score < h.Threshold {
		t.Fatalf("unseen MR activity scored %.1f, should alarm", score)
	}
}

func TestDeltaArithmetic(t *testing.T) {
	a := Snapshot{Counters: nic.Counters{TxBytes: 100, RxMsgs: map[nic.Opcode]uint64{nic.OpRead: 10},
		PerQPMsgs: map[uint32]uint64{1: 5}, PerMRBytes: map[uint32]uint64{7: 640}}}
	b := Snapshot{Counters: nic.Counters{TxBytes: 150, RxMsgs: map[nic.Opcode]uint64{nic.OpRead: 25},
		PerQPMsgs: map[uint32]uint64{1: 9}, PerMRBytes: map[uint32]uint64{7: 960}}}
	d := telemetry.Delta(a, b)
	if d.TxBytes != 50 || d.RxMsgs[nic.OpRead] != 15 || d.PerQPMsgs[1] != 4 || d.PerMRBytes[7] != 320 {
		t.Fatalf("delta = %+v", d)
	}
}

// Noise mitigation: channel error rises with amplitude; benign ULI inflates.
func TestNoiseMitigationTradeoff(t *testing.T) {
	run := func(amp sim.Duration) (errRate, meanULI float64) {
		ch, err := covert.NewIntraMRChannel(nic.CX4, 17)
		if err != nil {
			t.Fatal(err)
		}
		uninstall := NoiseMitigation(ch.Cluster.Server.NIC(), amp, ch.Cluster.Eng.Rand())
		defer uninstall()
		run, err := ch.Transmit(bitstream.RandomBits(9, 48))
		if err != nil {
			t.Fatal(err)
		}
		return run.Result.ErrorRate, stats.Mean(run.SymbolMeans)
	}
	e0, u0 := run(0)
	eHi, uHi := run(800 * sim.Nanosecond)
	if eHi <= e0 {
		t.Fatalf("noise did not degrade the channel: %.2f -> %.2f", e0, eHi)
	}
	if uHi <= u0 {
		t.Fatalf("noise has no performance cost: ULI %.0f -> %.0f", u0, uHi)
	}
	if eHi < 0.2 {
		t.Fatalf("800ns noise should roughly jam the channel, error = %.2f", eHi)
	}
}

func TestNoiseMitigationZeroAmplitude(t *testing.T) {
	ch, err := covert.NewIntraMRChannel(nic.CX4, 19)
	if err != nil {
		t.Fatal(err)
	}
	n := ch.Cluster.Server.NIC()
	uninstall := NoiseMitigation(n, 800*sim.Nanosecond, ch.Cluster.Eng.Rand())
	if n.TPU().ExtraService == nil {
		t.Fatal("nonzero amplitude should install the hook")
	}
	uninstall()
	if n.TPU().ExtraService != nil {
		t.Fatal("the uninstall func should clear the hook")
	}
	NoiseMitigation(n, 800*sim.Nanosecond, ch.Cluster.Eng.Rand())
	NoiseMitigation(n, 0, ch.Cluster.Eng.Rand())
	if n.TPU().ExtraService != nil {
		t.Fatal("zero amplitude should uninstall the hook")
	}
}

// Constant-time translations must kill the intra-MR channel completely
// (decode at chance) while inflating benign ULI.
func TestConstantTimeMitigationKillsChannel(t *testing.T) {
	run := func(enable bool) (errRate, meanULI float64) {
		ch, err := covert.NewIntraMRChannel(nic.CX5, 23)
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			defer ConstantTimeMitigation(ch.Cluster.Server.NIC(), true)()
		}
		run, err := ch.Transmit(bitstream.RandomBits(13, 64))
		if err != nil {
			t.Fatal(err)
		}
		return run.Result.ErrorRate, stats.Mean(run.SymbolMeans)
	}
	eOff, uOff := run(false)
	eOn, uOn := run(true)
	if eOn < 0.3 {
		t.Fatalf("constant-time TPU left the channel alive: %.1f%% -> %.1f%% errors", eOff*100, eOn*100)
	}
	if uOn <= uOff {
		t.Fatalf("constant-time TPU has no performance cost: ULI %.0f -> %.0f", uOff, uOn)
	}
}

// Constant-time must also erase the reverse-engineering structure itself:
// the offset sweep flattens.
func TestConstantTimeFlattensOffsetSurface(t *testing.T) {
	ch, err := covert.NewIntraMRChannel(nic.CX4, 29)
	if err != nil {
		t.Fatal(err)
	}
	tpu := ch.Cluster.Server.NIC().TPU()
	ConstantTimeMitigation(ch.Cluster.Server.NIC(), true)
	if !tpu.ConstantTimeEnabled() {
		t.Fatal("mitigation not installed")
	}
	a := tpu.Translate(nic.Request{MRKey: 1, Offset: 0, Length: 64, MRBase: 2 << 20, PageSize: 2 << 20})
	b := tpu.Translate(nic.Request{MRKey: 2, Offset: 255, Length: 64, MRBase: 4 << 20, PageSize: 2 << 20})
	// Difference is jitter only (sigma 5ns): far below the ~100ns signal
	// the attacks need.
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 40*sim.Nanosecond {
		t.Fatalf("constant-time translations differ by %v", diff)
	}
}

// Undoing the mitigation restores what it found: on a profile whose TPU is
// constant-time by construction, the TPU stays constant-time.
func TestConstantTimeMitigationUninstallRestores(t *testing.T) {
	eng := sim.NewEngine(1)
	n := nic.New(eng, "n", nic.WithConstTPU(nic.CX5), host.New(host.H2))
	ConstantTimeMitigation(n, true)()
	if !n.TPU().ConstantTimeEnabled() {
		t.Fatal("uninstalling the mitigation turned the profile's constant-time TPU off")
	}
	n = nic.New(eng, "m", nic.CX5, host.New(host.H2))
	ConstantTimeMitigation(n, true)()
	if n.TPU().ConstantTimeEnabled() {
		t.Fatal("uninstalling the mitigation left constant time on")
	}
}

// Grain-I pressure attacks trip the native PFC counters; the ULI probing
// channels never do — Table I's "native Grain-I ... detect and defend
// Grain-I attacks easily" line.
func TestPFCCountersCatchPressureNotProbes(t *testing.T) {
	// A ULI covert channel run leaves PFC counters untouched: probes never
	// build a 32-deep egress backlog.
	ch, err := covert.NewIntraMRChannel(nic.CX4, 41)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Transmit(bitstream.RandomBits(3, 24)); err != nil {
		t.Fatal(err)
	}
	for tc, v := range ch.Cluster.Server.NIC().Counters().PFCPauses {
		if v != 0 {
			t.Fatalf("probe traffic tripped PFC on TC %d (%d pauses)", tc, v)
		}
	}

	// A pressure burst (hundreds of responses queued at once) must trip
	// them. Drive the server's egress directly through a read burst from a
	// deep queue.
	c2, err := covert.NewIntraMRChannel(nic.CX4, 43)
	if err != nil {
		t.Fatal(err)
	}
	burstConn, err := c2.Cluster.Dial(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	mr := c2.State0 // any registered target
	for i := 0; i < 500; i++ {
		if err := burstConn.QP.PostRead(uint64(i), nil, mr, 4096); err != nil {
			t.Fatal(err)
		}
	}
	c2.Cluster.Eng.Run()
	total := uint64(0)
	for _, v := range c2.Cluster.Server.NIC().Counters().PFCPauses {
		total += v
	}
	if total == 0 {
		t.Fatal("pressure burst did not trip PFC pause counters")
	}
}
