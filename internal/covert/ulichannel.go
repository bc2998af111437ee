package covert

import (
	"errors"
	"fmt"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/traffic"
	"github.com/thu-has/ragnar/internal/uli"
	"github.com/thu-has/ragnar/internal/verbs"
)

// ULIChannel is the shared machinery of the inter-MR (Grain-III) and
// intra-MR (Grain-IV) channels: a sender that switches its read target
// between two states per covert bit, and a receiver that continuously
// probes and bins its ULI into symbol windows. The two parties share only
// the server's RNIC datapath.
type ULIChannel struct {
	Name    string
	Cluster *lab.Cluster

	// Receiver side.
	RxConn   *lab.Conn
	RxRemote verbs.RemoteBuf
	RxSize   int
	RxDepth  int

	// Sender side: State0/State1 are the targets encoding each bit value.
	TxConn  *lab.Conn
	State0  verbs.RemoteBuf
	State1  verbs.RemoteBuf
	TxSize  int
	TxDepth int

	SymbolTime sim.Duration
	// BoundaryJitter models Tx/Rx clock skew: each Tx switch point shifts
	// uniformly within ±BoundaryJitter. This — not Gaussian ULI noise — is
	// what produces the paper's few-percent error rates.
	BoundaryJitter sim.Duration
}

// ULIRun is the outcome of one transmission.
type ULIRun struct {
	Result      Result
	Decoded     bitstream.Bits
	SymbolMeans []float64
	Samples     []uli.Sample
	// Folded is the Figure 10/11 view over the two-symbol period.
	Folded FoldedTrace
}

// Transmit sends bits over the channel and decodes them from the receiver's
// binned ULI. When the cluster has a recorder attached, sender symbol
// switches and receiver ULI samples go to it too. Recording is passive: a
// traced run is byte-identical to an untraced one.
func (ch *ULIChannel) Transmit(bits bitstream.Bits) (*ULIRun, error) {
	if len(bits) == 0 {
		return nil, errors.New("covert: empty bitstream")
	}
	if ch.SymbolTime <= 0 {
		return nil, errors.New("covert: symbol time must be positive")
	}
	eng := ch.Cluster.Eng
	rng := eng.Rand()
	rec := eng.Recorder()

	prober := &uli.Prober{
		QP: ch.RxConn.QP, CQ: ch.RxConn.CQ,
		Remote: ch.RxRemote, MsgSize: ch.RxSize, Depth: ch.RxDepth,
		Rec: rec,
	}
	txActor := rec.RegisterActor("covert/tx")

	// The sender's state variable; switch events are scheduled with jitter.
	state := bits[0]
	gen := &traffic.Generator{
		QP: ch.TxConn.QP, CQ: ch.TxConn.CQ,
		Op: nic.OpRead, MsgSize: ch.TxSize, Depth: ch.TxDepth,
		Next: func(int) verbs.RemoteBuf {
			if state == 0 {
				return ch.State0
			}
			return ch.State1
		},
	}

	start := eng.Now()
	rec.Emit(trace.Event{At: int64(start), Kind: trace.KindSymbol,
		Actor: txActor, Val: uint64(bits[0]), TC: -1})
	for k := 1; k < len(bits); k++ {
		b := bits[k]
		boundary := start.Add(sim.Duration(k) * ch.SymbolTime)
		if ch.BoundaryJitter > 0 {
			boundary = boundary.Add(sim.Uniform(rng, 2*ch.BoundaryJitter) - ch.BoundaryJitter)
		}
		if boundary < eng.Now() {
			boundary = eng.Now()
		}
		eng.At(boundary, func() {
			state = b
			rec.Emit(trace.Event{At: int64(eng.Now()), Kind: trace.KindSymbol,
				Actor: txActor, Val: uint64(b), TC: -1})
		})
	}

	if err := gen.Start(); err != nil {
		return nil, err
	}
	if err := prober.Start(); err != nil {
		return nil, err
	}
	eng.RunUntil(start.Add(sim.Duration(len(bits)) * ch.SymbolTime))
	prober.Stop()
	gen.Stop()
	if err := prober.Err(); err != nil {
		return nil, err
	}
	if gen.Errors() > 0 {
		return nil, fmt.Errorf("covert: %d sender operations failed", gen.Errors())
	}

	// Bin receiver samples into symbol windows. Probes in flight when the
	// sender switches states carry the previous symbol's contention, so the
	// first third of each window is a guard interval the decoder skips.
	// A window can be blank: a transport stall (loss recovery) or a probe
	// ramp slower than one symbol (heavy noise mitigation) leaves it without
	// samples. A real receiver free-runs on its last observation, so a blank
	// window holds the previous symbol's mean, and blank leading windows
	// take the first observed one.
	means := make([]float64, len(bits))
	first := -1
	var w []float64
	for k := range bits {
		from := start.Add(sim.Duration(k) * ch.SymbolTime)
		to := from.Add(ch.SymbolTime)
		w = prober.AppendWindow(w[:0], from.Add(ch.SymbolTime*3/10), to)
		if len(w) == 0 {
			w = prober.AppendWindow(w, from, to)
		}
		switch {
		case len(w) > 0:
			means[k] = stats.Mean(w)
			if first < 0 {
				first = k
			}
		case k > 0:
			means[k] = means[k-1]
		}
	}
	if first < 0 {
		return nil, errors.New("covert: no symbol received ULI samples (symbol time too short?)")
	}
	for k := 0; k < first; k++ {
		means[k] = means[first]
	}
	// State 1 raises the Rx ULI in both Ragnar channels (MR switching and
	// unaligned offsets are slower), so a high mean decodes as 1.
	decoded := decodeByThreshold(means)

	times := make([]float64, len(prober.Samples))
	vals := make([]float64, len(prober.Samples))
	for i, s := range prober.Samples {
		times[i] = s.At.Sub(start).Seconds()
		vals[i] = s.ULINano
	}
	bps := 1.0 / ch.SymbolTime.Seconds()
	return &ULIRun{
		Result:      newResult(ch.Name, ch.Cluster.Profile.Name, bps, bits, decoded),
		Decoded:     decoded,
		SymbolMeans: means,
		Samples:     prober.Samples,
		Folded:      Fold(times, vals, 2*ch.SymbolTime.Seconds(), 32),
	}, nil
}

// interMRParams and intraMRParams hold the paper's best parameter
// combinations (Table V footnotes 10 and 11).
type ulichanParams struct {
	symbolTime sim.Duration
	msgSize    int
	depth      int
	off0, off1 uint64 // intra-MR offsets
}

// The paper's best send-queue depths are 10/6/6. On the simulated path the
// deeper 10/10/14 depths land the emergent error rates inside the paper's
// 4-8% band (shallow queues decode *too* cleanly here: less inter-symbol
// interference than the authors' testbed exhibits). Symbol rates are
// Table V's. The queue-depth ablation bench quantifies the tradeoff.
// chanProfileName resolves the calibration key for a profile: derived
// (hardened) profiles calibrate with their base adapter's modulation
// parameters instead of silently falling into the default arm.
func chanProfileName(p nic.Profile) string {
	if p.Base != "" {
		return p.Base
	}
	return p.Name
}

func interMRParams(p nic.Profile) ulichanParams {
	switch chanProfileName(p) {
	case nic.CX4.Name: // 31.8 Kbps, 512 B reads
		return ulichanParams{symbolTime: sim.Duration(31.45 * float64(sim.Microsecond)), msgSize: 512, depth: 10}
	case nic.CX5.Name: // 63.6 Kbps, 64 B reads
		return ulichanParams{symbolTime: sim.Duration(15.72 * float64(sim.Microsecond)), msgSize: 64, depth: 10}
	default: // CX-6: 84.3 Kbps, 512 B reads
		return ulichanParams{symbolTime: sim.Duration(11.86 * float64(sim.Microsecond)), msgSize: 512, depth: 14}
	}
}

func intraMRParams(p nic.Profile) ulichanParams {
	switch chanProfileName(p) {
	case nic.CX4.Name: // 32.2 Kbps, offsets 0/255
		return ulichanParams{symbolTime: sim.Duration(31.06 * float64(sim.Microsecond)), msgSize: 512, depth: 8, off0: 0, off1: 255}
	case nic.CX5.Name: // 31.5 Kbps, offsets 0/255
		return ulichanParams{symbolTime: sim.Duration(31.75 * float64(sim.Microsecond)), msgSize: 512, depth: 10, off0: 0, off1: 255}
	default: // CX-6: 81.3 Kbps, offsets 0/257
		return ulichanParams{symbolTime: sim.Duration(12.30 * float64(sim.Microsecond)), msgSize: 512, depth: 14, off0: 0, off1: 257}
	}
}

// NewInterMRChannel builds the Grain-III channel on a fresh point-to-point
// cluster: three MRs on the server (the receiver probes A; the sender
// touches A for bit 0 — no MR switch in the TPU pipeline — or B for bit 1,
// forcing an MR-context switch on every interleaved translation).
func NewInterMRChannel(p nic.Profile, seed int64) (*ULIChannel, error) {
	cfg := lab.DefaultConfig(p)
	cfg.Seed = seed
	return NewInterMRChannelOn(lab.Pair(cfg))
}

// NewInterMRChannelOn builds the Grain-III channel on an already-built
// topology — client 0 receives, client 1 sends — so switched rigs (Star,
// Clos) reuse the exact transmit machinery the point-to-point channel
// uses. The topology must be freshly built: the channel dials and
// warms its own connections.
func NewInterMRChannelOn(c *lab.Cluster) (*ULIChannel, error) {
	if len(c.Clients) < 2 {
		return nil, fmt.Errorf("covert: topology has %d clients, need 2", len(c.Clients))
	}
	p := c.Profile
	prm := interMRParams(p)
	mrA, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		return nil, err
	}
	mrB, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		return nil, err
	}
	rx, err := c.Dial(0, prm.depth+2)
	if err != nil {
		return nil, err
	}
	tx, err := c.Dial(1, prm.depth+2)
	if err != nil {
		return nil, err
	}
	for _, cn := range []*lab.Conn{rx, tx} {
		for _, mr := range []*verbs.MR{mrA, mrB} {
			if err := c.Warm(cn, mr); err != nil {
				return nil, err
			}
		}
	}
	return &ULIChannel{
		Name:    "inter-MR(III)",
		Cluster: c,
		RxConn:  rx, RxRemote: mrA.Describe(0), RxSize: prm.msgSize, RxDepth: prm.depth,
		TxConn: tx, State0: mrA.Describe(4096), State1: mrB.Describe(4096),
		TxSize: prm.msgSize, TxDepth: prm.depth,
		SymbolTime:     prm.symbolTime,
		BoundaryJitter: prm.symbolTime * 2 / 5,
	}, nil
}

// NewIntraMRChannel builds the Grain-IV channel on a fresh point-to-point
// cluster: one shared MR; the sender encodes bits purely in its access
// offset (0 B vs 255/257 B), indistinguishable from benign address variation
// to Grain-I..III monitors.
func NewIntraMRChannel(p nic.Profile, seed int64) (*ULIChannel, error) {
	cfg := lab.DefaultConfig(p)
	cfg.Seed = seed
	return NewIntraMRChannelOn(lab.Pair(cfg))
}

// NewIntraMRChannelOn builds the Grain-IV channel on an already-built
// topology (client 0 receives, client 1 sends), mirroring
// NewInterMRChannelOn.
func NewIntraMRChannelOn(c *lab.Cluster) (*ULIChannel, error) {
	if len(c.Clients) < 2 {
		return nil, fmt.Errorf("covert: topology has %d clients, need 2", len(c.Clients))
	}
	p := c.Profile
	prm := intraMRParams(p)
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		return nil, err
	}
	rx, err := c.Dial(0, prm.depth+2)
	if err != nil {
		return nil, err
	}
	tx, err := c.Dial(1, prm.depth+2)
	if err != nil {
		return nil, err
	}
	for _, cn := range []*lab.Conn{rx, tx} {
		if err := c.Warm(cn, mr); err != nil {
			return nil, err
		}
	}
	// The receiver probes a bank-neutral, 64 B-aligned offset so its own
	// translations have constant cost; only queueing behind the sender's
	// fast (aligned) vs slow (unaligned) translations moves its ULI.
	return &ULIChannel{
		Name:    "intra-MR(IV)",
		Cluster: c,
		RxConn:  rx, RxRemote: mr.Describe(320), RxSize: prm.msgSize, RxDepth: prm.depth,
		TxConn: tx, State0: mr.Describe(prm.off0), State1: mr.Describe(prm.off1),
		TxSize: prm.msgSize, TxDepth: prm.depth,
		SymbolTime:     prm.symbolTime,
		BoundaryJitter: prm.symbolTime * 2 / 5,
	}, nil
}
