package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/telemetry"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/traffic"
	"github.com/thu-has/ragnar/internal/verbs"
)

// The exhaust experiment escalates the tenants contention sweep into
// resource exhaustion: instead of merely out-bidding the victims for
// bandwidth, the aggressor attacks the NIC's and fabric's *finite* state —
// the ICM context cache (QP/MR contexts), completion-queue capacity, and
// PFC pause machinery — and the experiment asks whether a defender can tell
// the two apart from counters. Three attack regimes share one rig shape
// (N victims + 1 aggressor on a star, exactly the tenants layout):
//
//   - contention: the unmodified tenants aggressor (closed-loop READs into
//     one MR over one QP). The zero-exhaustion corner — a regression oracle
//     pins its numbers to the tenants experiment byte-for-byte.
//   - qp-ctx / mr-ctx: the aggressor spreads the same offered load over
//     many QPs or MRs on a profile whose context cache holds only
//     exhaustCtxEntries contexts. Below capacity the cells time like
//     contention; past it every access faults, the victims' contexts are
//     evicted, and each victim operation pays the DMA-fetch penalty. The
//     aggressor never polls its undersized CQs, so its completions overrun.
//   - pause: the aggressor sprays PRIO pause frames at its own switch port
//     on a duty cycle while running large READs. Its responses back up at
//     the paused port, cross XOFF, and the congestion tree pauses every
//     uplink — NeVerMore's amplification without the aggressor ever being
//     the bandwidth bottleneck.
//
// Distinguishability: per-victim HARMONIC detectors (trained aggressor-idle,
// as in tenants) fire on *both* contention and exhaustion — bandwidth
// collapse looks the same from a victim's volume counters. The exhaustion
// verdict (ExhScore) instead scores only the finite-resource markers —
// context misses/evictions, CQ overruns, received pause frames — against a
// server-side detector trained on the same benign windows: plain contention
// leaves all of them at zero, so any nonzero marker is an unseen metric and
// scores by magnitude.
const (
	// exhaustCtxEntries is the constrained profile's ICM context capacity.
	// Sized so victims+aggressor fit at the sweep's low end (16 QPs or 16
	// MRs ≈ contention) and thrash at the high end (64 of either).
	exhaustCtxEntries = 24
	// exhaustCQCap is the aggressor's per-connection CQ capacity in the
	// context sweeps; it never polls, so completions past this overrun.
	exhaustCQCap = 16
	// exhaustTick is the open-loop aggressor's refill period.
	exhaustTick = 2 * sim.Microsecond
	// exhaustPausePeriod is one pause-abuse duty cycle; the port is paused
	// for duty% of each period during the attack phase.
	exhaustPausePeriod = 10 * sim.Microsecond
	// exhaustPauseSize is the pause-abuse aggressor's READ size: big enough
	// that its paused-port backlog crosses the switch's XOFF threshold.
	exhaustPauseSize = 16384
	// exhaustBaseSize matches the tenants 4 KB sweep point for the oracle.
	exhaustBaseSize = 4096
)

// exhaustProfile constrains a profile's finite resources: a small shared
// context cache and MR-context (MPT) caching enabled so MPT misses are
// priced on the TPU path. Legacy profiles keep MPTMissPenalty at zero, so
// every other experiment is untouched.
func exhaustProfile(p nic.Profile) nic.Profile {
	p.QPCCacheEntries = exhaustCtxEntries
	p.MPTMissPenalty = p.QPCMissPenalty
	return p
}

// ExhaustCell is one aggressor configuration.
type ExhaustCell struct {
	Regime  string // contention | qp-ctx | mr-ctx | pause
	QPs     int    // aggressor QP count
	MRs     int    // distinct server MRs the aggressor cycles through
	Duty    int    // pause-abuse duty cycle, percent of each period
	AggSize int

	VictimBandwidth

	// Attack-phase exhaustion markers: server-NIC context-cache traffic,
	// aggressor-NIC CQ overruns, switch-received pause frames.
	CtxMisses    uint64
	CtxEvictions uint64
	CQOverruns   uint64
	RxPauses     uint64
	SwitchPFC    uint64

	MaxScore float64 // highest per-victim HARMONIC score (fires for contention too)
	Detected int     // victims whose HARMONIC fired in any window
	ExhScore float64 // exhaustion-marker score: 0 for plain contention
	WqeP99x  float64 // victim WQE p99 latency, attack / baseline
}

// ExhaustResult is the rendered experiment outcome.
type ExhaustResult struct {
	NIC     string
	Victims int
	Cells   []ExhaustCell
}

type exhaustCellIn struct {
	qps, mrs, duty int
	cellID         uint64
}

// exhaustSweep is the fixed cell list. Cell 0 is the zero-exhaustion
// corner: same cellID (hence same derived seed), opcode, size and
// closed-loop aggressor as the tenants READ/4096 cell, on the unmodified
// profile — the contention ≡ exhaustion-at-capacity-∞ oracle.
var exhaustSweep = []exhaustCellIn{
	{qps: 1, mrs: 1, duty: 0, cellID: 0},
	{qps: 16, mrs: 1, duty: 0, cellID: 1},
	{qps: 64, mrs: 1, duty: 0, cellID: 2},
	{qps: 1, mrs: 16, duty: 0, cellID: 3},
	{qps: 1, mrs: 64, duty: 0, cellID: 4},
	{qps: 1, mrs: 1, duty: 40, cellID: 5},
	{qps: 1, mrs: 1, duty: 80, cellID: 6},
}

func (in exhaustCellIn) regime() string {
	switch {
	case in.duty > 0:
		return "pause"
	case in.qps > 1:
		return "qp-ctx"
	case in.mrs > 1:
		return "mr-ctx"
	}
	return "contention"
}

// exhaustPump is the open-loop context-thrashing aggressor: every tick it
// tops each of its QPs back up to depth, cycling targets round-robin. It
// never arms Notify and never polls, so its undersized CQs overrun — the
// CQ-exhaustion observable — while Outstanding() (decremented by the NIC
// regardless of CQ state) keeps the refill loop flowing.
type exhaustPump struct {
	eng     *sim.Engine
	conns   []*lab.Conn
	targets []verbs.RemoteBuf
	size    int
	depth   int // per-QP
	posted  uint64
	errs    uint64
	ti      int
	stopped bool
	tickFn  func()
}

func (p *exhaustPump) start() {
	p.tickFn = p.tick
	p.tick()
}

func (p *exhaustPump) stop() { p.stopped = true }

// done reports retired operations: posts the NIC has completed, whether or
// not their CQEs survived the CQ.
func (p *exhaustPump) done() uint64 {
	var out int
	for _, cn := range p.conns {
		out += cn.QP.Outstanding()
	}
	return p.posted - uint64(out)
}

func (p *exhaustPump) tick() {
	if p.stopped {
		return
	}
	for _, cn := range p.conns {
		for cn.QP.Outstanding() < p.depth {
			t := p.targets[p.ti%len(p.targets)]
			p.ti++
			if err := cn.QP.PostRead(p.posted, nil, t, p.size); err != nil {
				p.errs++
				return
			}
			p.posted++
		}
	}
	p.eng.After(exhaustTick, p.tickFn)
}

// runExhaustCell measures one aggressor configuration on a fresh star rig.
// It composes the same harness pieces as runTenantCell in the same order —
// victim set, dial/warm order, window counts, snapshot points — so the
// contention cell is event-for-event the tenants cell; everything extra
// this cell observes (the server watch, the victim-side flight recorder,
// switch pause counters) is passive.
func runExhaustCell(p nic.Profile, victims int, in exhaustCellIn, seed int64) (ExhaustCell, error) {
	prof := p
	if in.qps > 1 || in.mrs > 1 {
		prof = exhaustProfile(p)
	}
	cfg := lab.DefaultConfig(prof)
	cfg.Seed = sim.DeriveSeed(seed, in.cellID)
	cfg.Clients = victims + 1 // client 0 is the aggressor
	c := lab.Star(cfg)

	// Victim-side flight recorder: the WQE latency histogram behind
	// WqeP99x. Attached before any traffic; recording is passive
	// (traced ≡ untraced is a pinned invariant).
	rec := trace.NewRecorder("exhaust/"+p.Name, trace.DefaultCapacity)
	for i := 0; i < victims; i++ {
		c.Clients[i+1].SetRecorder(rec)
	}

	mr, err := c.RegisterServerMR(8 << 20)
	if err != nil {
		return ExhaustCell{}, err
	}
	cell := ExhaustCell{Regime: in.regime(), QPs: in.qps, MRs: in.mrs, Duty: in.duty}
	cell.AggSize = exhaustBaseSize
	if in.duty > 0 {
		cell.AggSize = exhaustPauseSize
	}

	// The aggressor's target set: the tenants offset of the shared MR, or
	// mrs distinct server MRs for the MR-context sweep.
	targets := []verbs.RemoteBuf{mr.Describe(4 << 20)}
	if in.mrs > 1 {
		targets = targets[:0]
		for k := 0; k < in.mrs; k++ {
			xmr, err := c.RegisterServerMR(256 << 10)
			if err != nil {
				return ExhaustCell{}, err
			}
			targets = append(targets, xmr.Describe(0))
		}
	}

	// Victims first, then the aggressor — identical to tenants.
	vs, err := dialVictims(c, mr, 1, victims, tenantVictimSize, tenantVictimDepth, 256<<10)
	if err != nil {
		return ExhaustCell{}, err
	}
	perQP := max(tenantAggDepth/in.qps, 1)
	openLoop := in.qps > 1 || in.mrs > 1
	aggConns := make([]*lab.Conn, in.qps)
	for q := 0; q < in.qps; q++ {
		depth, cqCap := tenantAggDepth*2, 0
		if openLoop {
			depth, cqCap = perQP*2, exhaustCQCap
		}
		conn, err := c.DialCQ(0, depth, cqCap)
		if err != nil {
			return ExhaustCell{}, err
		}
		if err := c.Warm(conn, mr); err != nil {
			return ExhaustCell{}, err
		}
		aggConns[q] = conn
	}
	if err := vs.start(); err != nil {
		return ExhaustCell{}, err
	}

	// Baseline phase (aggressor idle): train one HARMONIC per victim, plus
	// one on the server NIC for the exhaustion-marker verdict, and capture
	// the victim WQE-latency baseline.
	c.RunFor(tenantWarmup)
	mTrain0 := *rec.Metrics()
	ws := vs.watches(c.Eng)
	srv := newWatch(c.Eng, c.Server.NIC())
	vs.mark()
	runWindows(c, tenantTrainWins, tenantWindow, append(ws, srv)...)
	cell.SoloGbps = stats.Mean(vs.gbps(tenantTrainWins * tenantWindow))

	// Attack phase. The closed-loop generator (contention and pause cells)
	// is byte-identical to the tenants aggressor; the open-loop pump drives
	// the context sweeps.
	sw := c.Switches[0]
	var agg *traffic.Generator
	var pump *exhaustPump
	if openLoop {
		pump = &exhaustPump{eng: c.Eng, conns: aggConns, targets: targets, size: cell.AggSize, depth: perQP}
		pump.start()
	} else {
		agg = &traffic.Generator{
			QP: aggConns[0].QP, CQ: aggConns[0].CQ, Op: nic.OpRead,
			MsgSize: cell.AggSize, Depth: tenantAggDepth,
			Next: traffic.FixedTarget(targets[0]),
		}
		if err := agg.Start(); err != nil {
			return ExhaustCell{}, err
		}
	}
	const scoreDur = tenantScoreWins * tenantWindow
	if in.duty > 0 {
		// Pause abuse: the aggressor (star port 1) sprays pause frames at
		// its own port for duty% of every period across the attack phase.
		const aggPort = 1
		hold := exhaustPausePeriod * sim.Duration(in.duty) / 100
		for k := sim.Duration(0); k*exhaustPausePeriod < scoreDur; k++ {
			at := k * exhaustPausePeriod
			c.Eng.After(at, func() { sw.PortPause(aggPort, 0) })
			c.Eng.After(at+hold, func() { sw.PortResume(aggPort, 0) })
		}
	}
	pfc0, rxp0 := perTC(sw.PFCPauses), perTC(sw.RxPauses)
	srv.train()
	agg0 := telemetry.Snap(c.Eng, c.Clients[0].NIC())
	mAtk0 := *rec.Metrics()
	trainAll(ws)
	vs.mark()
	aggDone := func() uint64 {
		if agg != nil {
			return agg.Completed()
		}
		return pump.done()
	}
	aggStart := aggDone()
	runWindows(c, tenantScoreWins, tenantWindow, ws...)
	if pump != nil {
		pump.stop()
	}
	cell.VictimGbps = vs.gbps(scoreDur)
	cell.MaxScore, cell.Detected = verdict(ws)
	cell.AggGbps = gbpsOf(aggDone()-aggStart, cell.AggSize, scoreDur)
	cell.SwitchPFC = perTC(sw.PFCPauses) - pfc0
	cell.RxPauses = perTC(sw.RxPauses) - rxp0

	// Exhaustion markers over the whole attack phase: server context-cache
	// traffic, aggressor CQ overruns, switch-received pause frames. Scored
	// against the server-trained detector with the same nonzero gating as
	// defense.features — plain contention leaves the vector empty (score
	// 0); any exhaustion marker is unseen in training and scores by
	// magnitude.
	srvD := srv.sinceTrain()
	aggD := telemetry.Delta(agg0, telemetry.Snap(c.Eng, c.Clients[0].NIC()))
	cell.CtxMisses = srvD.CtxMisses
	cell.CtxEvictions = srvD.CtxEvictions
	cell.CQOverruns = aggD.CQOverruns
	markers := map[string]float64{}
	defense.PutNonzero(markers, "ctx_miss", cell.CtxMisses)
	defense.PutNonzero(markers, "ctx_evict", cell.CtxEvictions)
	defense.PutNonzero(markers, "cq_overrun", cell.CQOverruns)
	defense.PutNonzero(markers, "rx_pause", cell.RxPauses)
	cell.ExhScore = srv.det.ScoreVector(markers)

	// Victim WQE p99: attack windows over training windows, from the
	// flight recorder's latency registry.
	const ns = 1000.0 // histogram durations are picoseconds
	if bp := float64(mAtk0.DeltaFrom(&mTrain0).WQELatency.Quantile(0.99)) / ns; bp > 0 {
		cell.WqeP99x = float64(rec.Metrics().DeltaFrom(&mAtk0).WQELatency.Quantile(0.99)) / ns / bp
	}

	if err := vs.err(); err != nil {
		return ExhaustCell{}, fmt.Errorf("exhaust: %w", err)
	}
	if pump != nil && pump.errs > 0 {
		return ExhaustCell{}, fmt.Errorf("exhaust: aggressor posts errored")
	}
	return cell, nil
}

// Exhaust runs the resource-exhaustion sweep: one aggressor spanning QP
// count x MR count x pause-abuse duty cycle against a fixed victim
// population. Every cell is an independent star rig seeded with
// sim.DeriveSeed(seed, cellID), so rows are identical at any worker count.
func Exhaust(p nic.Profile, victims int, seed int64, workers int) (ExhaustResult, error) {
	if victims < 1 {
		victims = 3
	}
	outs, err := parallel.Map(workers, exhaustSweep,
		func(in exhaustCellIn) (ExhaustCell, error) {
			return runExhaustCell(p, victims, in, seed)
		})
	if err != nil {
		return ExhaustResult{}, err
	}
	return ExhaustResult{NIC: p.Name, Victims: victims, Cells: outs}, nil
}

// Render formats the exhaustion-vs-contention table.
func (r ExhaustResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXHAUST: noisy-neighbor resource exhaustion vs contention (%s, %d victims + 1 aggressor)\n",
		r.NIC, r.Victims)
	fmt.Fprintf(&b, "%-10s %4s %4s %5s %7s %8s %8s %7s %8s %8s %7s %7s %9s %5s %10s %8s\n",
		"Regime", "QPs", "MRs", "Duty", "AggSize", "AggGbps", "VicGbps", "%solo",
		"CtxMiss", "CtxEvict", "CQOver", "RxPause", "HARMONIC", "Det", "ExhScore", "WqeP99x")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10s %4d %4d %4d%% %7d %8.2f %8.2f %6.1f%% %8d %8d %7d %7d %9.2f %3d/%d %10.1f %7.2fx\n",
			c.Regime, c.QPs, c.MRs, c.Duty, c.AggSize, c.AggGbps, c.MeanVictimGbps(),
			c.SoloPct(), c.CtxMisses, c.CtxEvictions, c.CQOverruns, c.RxPauses,
			c.MaxScore, c.Detected, len(c.VictimGbps), c.ExhScore, c.WqeP99x)
	}
	b.WriteString("(HARMONIC fires on contention and exhaustion alike; ExhScore uses only finite-resource markers — ctx misses/evictions, CQ overruns, received pause frames — all zero under plain contention)\n")
	return b.String()
}
