package covert

import (
	"math"
	"math/rand"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/trace"
)

// PriorityChannel is the inter-traffic-class channel of Section V-B: the
// covert Tx encodes bit 1 as a stream of 128 B RDMA Writes and bit 0 as
// 2048 B writes; the Rx monitors the bandwidth of its own small flow, which
// the 2048 B storm depresses far more (posted-PCIe starvation of the
// monitor's read-response fetches). Symbols are seconds long, making this
// the paper's ~1 bps channel with zero observed errors.
type PriorityChannel struct {
	Profile    nic.Profile
	SymbolTime sim.Duration
	Window     sim.Duration // bandwidth sampling period
	// Monitor is the Rx's continuously measured flow.
	Monitor nic.FlowSpec
	// Bit1 and Bit0 are the Tx's two traffic modes.
	Bit1 nic.FlowSpec
	Bit0 nic.FlowSpec
	// RelNoise is the relative sampling noise on windowed bandwidth
	// (ethtool counters on a live system wobble ~1-2%).
	RelNoise float64
	// Trace, when set, records each sender symbol and each monitor bandwidth
	// window (as a Chrome counter track). The fluid model has no sim engine,
	// so event timestamps come from the channel's own symbol clock.
	Trace *trace.Recorder
}

// NewPriorityChannel configures the paper's Figure 9 setup for a NIC.
func NewPriorityChannel(p nic.Profile) *PriorityChannel {
	symbol := sim.Second // CX-4: 1.0 bps
	if p.Name != nic.CX4.Name {
		symbol = sim.Duration(0.909 * float64(sim.Second)) // CX-5/6: 1.1 bps
	}
	return &PriorityChannel{
		Profile:    p,
		SymbolTime: symbol,
		Window:     10 * sim.Millisecond,
		Monitor:    nic.FlowSpec{Name: "monitor", Op: nic.OpRead, MsgBytes: 1024, QPNum: 1, Client: 1},
		Bit1:       nic.FlowSpec{Name: "tx1", Op: nic.OpWrite, MsgBytes: 128, QPNum: 4, Client: 0},
		Bit0:       nic.FlowSpec{Name: "tx0", Op: nic.OpWrite, MsgBytes: 2048, QPNum: 4, Client: 0},
		RelNoise:   0.015,
	}
}

// TimePoint is one bandwidth sample of the Figure 9 trace.
type TimePoint struct {
	T  sim.Time
	BW float64 // monitor goodput, Gbps
}

// PriorityRun is the outcome of one transmission.
type PriorityRun struct {
	Result  Result
	Decoded bitstream.Bits
	Trace   []TimePoint // the Figure 9 series
}

// Transmit sends the bit string and decodes it from the monitor's
// windowed bandwidth.
func (ch *PriorityChannel) Transmit(bits bitstream.Bits, seed int64) *PriorityRun {
	rng := rand.New(rand.NewSource(seed))
	windowsPerSymbol := int(ch.SymbolTime / ch.Window)
	if windowsPerSymbol < 1 {
		windowsPerSymbol = 1
	}
	// Steady-state monitor bandwidth under each Tx mode comes from the
	// fluid model once; per-window samples add measurement noise.
	bw1 := nic.Solve(ch.Profile, []nic.FlowSpec{ch.Bit1, ch.Monitor})[1].GoodputGbps
	bw0 := nic.Solve(ch.Profile, []nic.FlowSpec{ch.Bit0, ch.Monitor})[1].GoodputGbps

	txActor := ch.Trace.RegisterActor("covert/tx")
	bwActor := ch.Trace.RegisterActor("monitor/bw")
	var series []TimePoint
	symbolMeans := make([]float64, len(bits))
	now := sim.Time(0)
	for k, b := range bits {
		base := bw1
		if b == 0 {
			base = bw0
		}
		ch.Trace.Emit(trace.Event{At: int64(now), Kind: trace.KindSymbol,
			Actor: txActor, Val: uint64(b), TC: -1})
		var acc []float64
		for w := 0; w < windowsPerSymbol; w++ {
			bw := base * (1 + ch.RelNoise*rng.NormFloat64())
			if bw < 0 {
				bw = 0
			}
			series = append(series, TimePoint{T: now, BW: bw})
			acc = append(acc, bw)
			ch.Trace.Emit(trace.Event{At: int64(now), Kind: trace.KindBWSample,
				Actor: bwActor, Val: math.Float64bits(bw), TC: -1})
			now = now.Add(ch.Window)
		}
		symbolMeans[k] = stats.Mean(acc)
	}
	// Bit 0 is the *significant* drop (Figure 9): one maps to the higher
	// bandwidth.
	decoded := decodeByThreshold(symbolMeans)
	bps := 1.0 / ch.SymbolTime.Seconds()
	run := &PriorityRun{
		Decoded: decoded,
		Trace:   series,
		Result:  newResult("priority(I+II)", ch.Profile.Name, bps, bits, decoded),
	}
	return run
}
