package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/appnvmf"
	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/verbs"
)

// The nvmf experiment runs the NeVerMore protocol-abuse family against an
// NVMe-oF-style storage victim (internal/appnvmf): an initiator sustaining a
// mixed read/write block workload against an RDMA storage target. Each
// attack is one cell on a fresh point-to-point rig, flanked by a no-attack
// baseline and a matched benign-wire-loss cell, and every cell asks two
// questions: how hard does victim service collapse (IOPS, p99), and can a
// counter-watching defender tell the abuse from congestion?
//
//   - baseline: no interference; the reference IOPS/latency row.
//   - loss: uniform random wire drops on every link — the benign
//     degradation the attack rows must be distinguished from. Retransmits
//     and NAKs surge, but every abuse marker stays structurally zero.
//   - nak-spoof: an on-path adversary taps the target's data-phase stream,
//     snoops request PSNs and injects forged NAK-sequence-errors back at the
//     target — half with the freshly snooped PSN (valid-looking: go-back-N
//     rewinds the deep window of large data WRITEs), half replaying a PSN
//     from before the attack (stale: each lands in InvalidNaks). Retransmit
//     storms with zero wire drops, plus a nonzero invalid-NAK marker.
//   - ack-forge: the adversary taps the target's downlink and answers the
//     target's data-phase verbs before the victim can — forged OK responses
//     carrying the snooped QPN and PSN (full wire visibility, the forgery
//     the reliability layer provably cannot reject). Read responses carry
//     attacker bytes, so NVMe writes commit garbage: silent namespace
//     corruption the victim only sees as end-to-end DataErrors. Counter
//     defenses stay blind — the echo of each real response is one DupAck.
//   - qp-guess: the adversary sprays requests at QPNs the target never
//     created, the NVMe-oF equivalent of a connection-guessing sweep. No
//     service impact, but every frame is charged to RxBadQP.
//   - sr-mismatch: a malicious tenant with its own legitimate queue floods
//     the target with mismatched capsules — truncated frames, oversized
//     garbage, LBA-overrun commands. Every one lands in BadCapsules, a pure
//     application-level abuse marker.
//
// AbuseScore is defense.Harmonic.ScoreVector over only the abuse markers
// (bad_qp, invalid_nak, invalid_ack, bad_psn, bad_capsule), trained on the
// same benign windows: random loss leaves the vector empty (score 0), so any
// nonzero marker scores by magnitude — the loss row and the attack rows
// separate even when HARMONIC's volume view fires for both.
const (
	nvmfNamespaceBytes = 2 << 20
	nvmfTargetDepth    = 64
	nvmfWindow         = 150 * sim.Microsecond
	nvmfTrainWins      = 8
	nvmfScoreWins      = 8
	nvmfWarmup         = 200 * sim.Microsecond
	// nvmfRetryTimeout sits well above the worst-case data-phase response
	// time under a full target queue: the NAK path recovers mid-stream loss
	// fast, and the timer only backstops tail/response drops. A tighter
	// timer fires spuriously under queueing, and a spurious retransmit of a
	// retired data WRITE can land in a recycled command slot — self-inflicted
	// corruption no attacker had to pay for.
	nvmfRetryTimeout = 200 * sim.Microsecond
	nvmfRetryLimit   = 1000
	// nvmfLossPct matches a lossgrid sweep point: the benign row the abuse
	// rows must be told apart from.
	nvmfLossPct = 0.5
	// nvmfSpoofEvery paces the NAK spoofer: one forged NAK per N observed
	// request frames. Retransmissions are observed too, so the storm feeds
	// itself: rewound frames draw fresh NAKs of their own.
	nvmfSpoofEvery = 1
	// nvmfGuessPeriod paces the QP-guessing sweep.
	nvmfGuessPeriod = 2 * sim.Microsecond
	// nvmfSprayPeriod paces the malformed-capsule tenant.
	nvmfSprayPeriod = 400 * sim.Nanosecond
)

// psn24 mirrors the transport's 24-bit PSN mask for forged-frame arithmetic.
const psn24 = 1<<24 - 1

// NvmfCell is one attack row.
type NvmfCell struct {
	Attack string

	KIOPS   float64 // attack-phase storage command rate, thousands/s
	IOPSPct float64 // percent of the same rig's baseline-phase rate
	P99x    float64 // command p99 latency, attack / baseline

	WireDrops uint64 // benign loss observable (fault + tail drops)
	Retx      uint64 // retransmits during the attack phase (victim + server)
	DupAcks   uint64 // duplicate ACKs coalesced (victim + server)

	// Abuse markers (victim + server NICs, plus the target's capsule
	// validator). Structurally zero under baseline and loss.
	BadQP    uint64
	InvNaks  uint64
	InvAcks  uint64
	BadPSN   uint64
	BadCaps  uint64
	DataErrs uint64 // end-to-end read verification failures (silent corruption)

	MaxScore   float64 // victim HARMONIC, worst window (volume view)
	Detected   bool    // victim HARMONIC fired in any window
	AbuseScore float64 // marker-only score: 0 unless a protocol was abused
}

// NvmfResult is the rendered experiment outcome.
type NvmfResult struct {
	NIC   string
	Cells []NvmfCell
}

type nvmfCellIn struct {
	attack string
	cellID uint64
}

var nvmfSweep = []nvmfCellIn{
	{attack: "baseline", cellID: 0},
	{attack: "loss", cellID: 1},
	{attack: "nak-spoof", cellID: 2},
	{attack: "ack-forge", cellID: 3},
	{attack: "qp-guess", cellID: 4},
	{attack: "sr-mismatch", cellID: 5},
}

// ---------------------------------------------------------------------------
// On-path adversaries (fabric.Adversary implementations)
// ---------------------------------------------------------------------------

// nakSpoofer taps the target's data-phase stream and NAKs the target's own
// requests back at it. The storage data phase keeps a deep window of large
// WRITEs outstanding, so every accepted NAK triggers a go-back-N rewind
// that re-sends the whole tail — megabytes of retransmission per forged
// frame. Even injections carry the freshly snooped PSN (the gap head IS
// outstanding, so the requester must rewind); odd injections replay a PSN
// from before the attack began — the classic replayed-NAK, whose gap head
// is long retired and therefore lands in InvalidNaks every time.
type nakSpoofer struct {
	requester *nic.NIC     // the NIC whose stream is being NAKed (the target)
	back      *fabric.Link // victim→server: where forged NAKs are spliced in
	seen      int
	stale     uint32
	haveStale bool
	injected  uint64
}

func (a *nakSpoofer) Observe(_ sim.Time, p fabric.Packet) {
	m, ok := nic.SnoopPacket(p)
	if !ok || m.IsResp {
		return
	}
	if !a.haveStale {
		// Gap head two behind the first observed PSN: that request retired
		// long before the attack began, so every replay of this NAK names a
		// gap head that is not outstanding — a counted InvalidNak.
		a.stale = (m.PSN - 2) & psn24
		a.haveStale = true
	}
	a.seen++
	if a.seen%nvmfSpoofEvery != 0 {
		return
	}
	ack := (m.PSN - 1) & psn24
	if a.injected%2 == 1 {
		ack = a.stale
	}
	a.injected++
	a.back.Inject(nic.ForgePacket(a.requester, nic.Message{
		Op: m.Op, SrcQPN: m.DstQPN, DstQPN: m.SrcQPN,
		IsResp: true, Status: nic.StatusSeqNak, TC: m.TC,
		PSN: m.PSN, AckPSN: ack,
	}))
}

// ackForger taps the target's downlink and completes the target's data-phase
// verbs itself: every outbound request is answered with a forged OK carrying
// the snooped QPN and exact PSN — the one forgery the hardened requester
// accepts, priced at full wire visibility. READ responses (the data pull
// behind an NVMe write) carry attacker bytes, so the target commits garbage
// to the namespace; the victim's later reads fail end-to-end verification.
type ackForger struct {
	server *nic.NIC
	up     *fabric.Link // victim→server: where forged responses are spliced in
	junk   []byte
	forged uint64
}

func (a *ackForger) Observe(_ sim.Time, p fabric.Packet) {
	m, ok := nic.SnoopPacket(p)
	if !ok || m.IsResp {
		return
	}
	resp := nic.Message{Op: m.Op, SrcQPN: m.DstQPN, DstQPN: m.SrcQPN,
		IsResp: true, Status: nic.StatusOK, TC: m.TC, PSN: m.PSN, AckPSN: m.PSN}
	if m.Op == nic.OpRead {
		if len(a.junk) < m.Length {
			a.junk = make([]byte, m.Length)
			for i := range a.junk {
				a.junk[i] = 0xa5
			}
		}
		resp.Length = m.Length
		resp.Data = a.junk[:m.Length]
	}
	a.forged++
	a.up.Inject(nic.ForgePacket(a.server, resp))
}

// qpGuesser sprays write requests at QPNs the target never created — the
// connection-guessing sweep. Responses are unroutable (the target has no
// reverse path for an unknown QPN), so the only trace is RxBadQP.
type qpGuesser struct {
	eng     *sim.Engine
	server  *nic.NIC
	up      *fabric.Link
	guesses uint64
	stopped bool
	tickFn  func()
}

func (g *qpGuesser) start() {
	g.tickFn = g.tick
	g.tick()
}

func (g *qpGuesser) tick() {
	if g.stopped {
		return
	}
	g.up.Inject(nic.ForgePacket(g.server, nic.Message{
		Op: nic.OpWrite, SrcQPN: 0x7fff, DstQPN: 0x4000 + uint32(g.guesses%256),
		RKey: 1, Length: 64, PSN: uint32(g.guesses) & psn24,
	}))
	g.guesses++
	g.eng.After(nvmfGuessPeriod, g.tickFn)
}

// capsuleSprayer is the malicious tenant: a legitimately connected queue
// that floods mismatched capsules — truncated frames (S/R size mismatch),
// oversized garbage, and well-framed commands whose LBA range can never be
// valid.
type capsuleSprayer struct {
	eng     *sim.Engine
	qp      *verbs.QP
	mr      *verbs.MR
	sent    uint64
	rejects uint64
	stopped bool
	tickFn  func()
}

func (s *capsuleSprayer) start() {
	s.tickFn = s.tick
	s.tick()
}

func (s *capsuleSprayer) tick() {
	if s.stopped {
		return
	}
	var data []byte
	switch s.sent % 3 {
	case 0:
		data = make([]byte, 24) // truncated capsule
	case 1:
		data = make([]byte, 4096) // oversized garbage frame
	default: // framed correctly, addressed impossibly
		data = appnvmf.Command{Op: appnvmf.CmdRead, CID: uint16(s.sent), NSID: 1,
			Offset: 1 << 40, Length: 1 << 16,
			RAddr: s.mr.Addr(0), RKey: s.mr.RKey()}.Marshal()
	}
	if err := s.qp.PostSend(1<<33|s.sent, data); err != nil {
		s.rejects++ // SQ full: the NIC is already saturated with abuse
	}
	s.sent++
	s.eng.After(nvmfSprayPeriod, s.tickFn)
}

// ---------------------------------------------------------------------------
// Cell driver
// ---------------------------------------------------------------------------

// runNvmfCell measures one attack on a fresh rig: a point-to-point pair with
// the storage target on the server, the victim initiator on client 0, and a
// second (attacker) host on client 1 whose queue stays idle outside the
// sr-mismatch cell.
func runNvmfCell(p nic.Profile, in nvmfCellIn, seed int64) (NvmfCell, error) {
	cfg := lab.DefaultConfig(p)
	cfg.Seed = sim.DeriveSeed(seed, in.cellID)
	cfg.Clients = 2
	c := lab.New(cfg)

	tgt, err := appnvmf.NewTarget(c.Server, nvmfNamespaceBytes)
	if err != nil {
		return NvmfCell{}, err
	}
	tq, err := tgt.Serve(nvmfTargetDepth)
	if err != nil {
		return NvmfCell{}, err
	}
	ini, err := appnvmf.NewInitiator(c.Clients[0], tq,
		appnvmf.DefaultWorkload(sim.DeriveSeed(cfg.Seed, 1)))
	if err != nil {
		return NvmfCell{}, err
	}
	// The attacker tenant's queue exists in every cell (identical rig
	// construction); only the sr-mismatch cell drives it.
	tq2, err := tgt.Serve(nvmfTargetDepth)
	if err != nil {
		return NvmfCell{}, err
	}
	atkPD := c.Clients[1].AllocPD()
	atkMR, err := atkPD.RegMR(1<<20, host.Page2M, verbs.AccessRemoteRead|verbs.AccessRemoteWrite)
	if err != nil {
		return NvmfCell{}, err
	}
	atkCQ := c.Clients[1].CreateCQ(0)
	atkCQ.Notify = func(nic.Completion) {}
	atkQP, err := c.Clients[1].CreateQP(atkPD, atkCQ, verbs.QPCap{MaxSendWR: 256})
	if err != nil {
		return NvmfCell{}, err
	}
	if err := verbs.Connect(atkQP, tq2.QP()); err != nil {
		return NvmfCell{}, err
	}
	for _, qp := range []*verbs.QP{ini.QP(), tq.QP(), atkQP, tq2.QP()} {
		if err := qp.SetRetry(nvmfRetryTimeout, nvmfRetryLimit); err != nil {
			return NvmfCell{}, err
		}
	}
	if in.attack == "loss" {
		c.InjectLoss(sim.DeriveSeed(cfg.Seed, 1<<32), nvmfLossPct/100)
	}

	cell := NvmfCell{Attack: in.attack}
	vicNIC := c.Clients[0].NIC()
	srvNIC := c.Server.NIC()

	// Baseline phase: warm up, then watch the victim and server NICs over
	// the training windows while recording the reference IOPS and latency
	// distribution.
	ini.Start()
	c.RunFor(nvmfWarmup)
	ini.ResetLatencies()
	vic, srv := newWatch(c.Eng, vicNIC), newWatch(c.Eng, srvNIC)
	base0 := ini.Stats().Completed
	runWindows(c, nvmfTrainWins, nvmfWindow, vic, srv)
	trainDur := sim.Duration(nvmfTrainWins) * nvmfWindow
	baseIOPS := float64(ini.Stats().Completed-base0) / trainDur.Seconds()
	baseP99 := stats.Percentile(ini.Latencies(), 99)
	ini.ResetLatencies()

	// Attack phase: install the cell's interference, score every victim
	// window against the trained detector, and tally the abuse markers.
	links := c.Links // [0] victim→server, [1] server→victim, [2]/[3] attacker
	var spoofer *nakSpoofer
	var forger *ackForger
	var guesser *qpGuesser
	var sprayer *capsuleSprayer
	switch in.attack {
	case "nak-spoof":
		spoofer = &nakSpoofer{requester: srvNIC, back: links[0]}
		links[1].SetAdversary(spoofer)
	case "ack-forge":
		forger = &ackForger{server: srvNIC, up: links[0]}
		links[1].SetAdversary(forger)
	case "qp-guess":
		guesser = &qpGuesser{eng: c.Eng, server: srvNIC, up: links[0]}
		guesser.start()
	case "sr-mismatch":
		sprayer = &capsuleSprayer{eng: c.Eng, qp: atkQP, mr: atkMR}
		sprayer.start()
	}

	vic.train()
	srv.train()
	atk0 := ini.Stats()
	caps0 := tgt.Counters().BadCapsules
	wireDrops := func() (n uint64) {
		for _, l := range links {
			n += perTC(l.Drops) + perTC(l.FaultDrops)
		}
		return n
	}
	drops0 := wireDrops()
	runWindows(c, nvmfScoreWins, nvmfWindow, vic)
	if guesser != nil {
		guesser.stopped = true
	}
	if sprayer != nil {
		sprayer.stopped = true
	}
	links[0].SetAdversary(nil)
	links[1].SetAdversary(nil)

	scoreDur := sim.Duration(nvmfScoreWins) * nvmfWindow
	atk := ini.Stats()
	cell.KIOPS = float64(atk.Completed-atk0.Completed) / scoreDur.Seconds() / 1e3
	if baseIOPS > 0 {
		cell.IOPSPct = 100 * cell.KIOPS * 1e3 / baseIOPS
	}
	if p99 := stats.Percentile(ini.Latencies(), 99); baseP99 > 0 {
		cell.P99x = p99 / baseP99
	}
	cell.MaxScore, cell.Detected = vic.maxScore, vic.fired
	cell.DataErrs = atk.DataErrors - atk0.DataErrors
	vd, sd := vic.sinceTrain(), srv.sinceTrain()
	cell.Retx = vd.Retransmits + sd.Retransmits
	cell.DupAcks = vd.DupAcks + sd.DupAcks
	cell.BadQP = vd.RxBadQP + sd.RxBadQP
	cell.InvNaks = vd.InvalidNaks + sd.InvalidNaks
	cell.InvAcks = vd.InvalidAcks + sd.InvalidAcks
	cell.BadPSN = vd.RxBadPSN + sd.RxBadPSN
	cell.BadCaps = tgt.Counters().BadCapsules - caps0
	cell.WireDrops = wireDrops() - drops0

	// Marker-only verdict: nonzero-gated like defense.features, so the loss
	// cell scores exactly zero.
	markers := map[string]float64{}
	defense.PutNonzero(markers, "bad_qp", cell.BadQP)
	defense.PutNonzero(markers, "invalid_nak", cell.InvNaks)
	defense.PutNonzero(markers, "invalid_ack", cell.InvAcks)
	defense.PutNonzero(markers, "bad_psn", cell.BadPSN)
	defense.PutNonzero(markers, "bad_capsule", cell.BadCaps)
	cell.AbuseScore = srv.det.ScoreVector(markers)

	// Drain and sanity-check the victim data path.
	ini.Stop()
	c.Run()
	if err := c.DrainCheck(); err != nil {
		return NvmfCell{}, fmt.Errorf("nvmf %s: %w", in.attack, err)
	}
	if st := ini.Stats(); st.ErrStatus > 0 {
		return NvmfCell{}, fmt.Errorf("nvmf %s: %d commands completed in error", in.attack, st.ErrStatus)
	}
	if tq.Errors > 0 {
		return NvmfCell{}, fmt.Errorf("nvmf %s: %d target backend errors", in.attack, tq.Errors)
	}
	return cell, nil
}

// Nvmf runs the protocol-abuse sweep against the storage victim. Every cell
// is an independent rig seeded with sim.DeriveSeed(seed, cellID), so rows
// are identical at any worker count.
func Nvmf(p nic.Profile, seed int64, workers int) (NvmfResult, error) {
	outs, err := parallel.Map(context.Background(), workers, nvmfSweep,
		func(_ context.Context, _ int, in nvmfCellIn) (NvmfCell, error) {
			return runNvmfCell(p, in, seed)
		})
	if err != nil {
		return NvmfResult{}, err
	}
	return NvmfResult{NIC: p.Name, Cells: outs}, nil
}

// Render formats the abuse-vs-loss table.
func (r NvmfResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NVMF: NeVerMore protocol abuse vs the NVMe-oF storage victim (%s)\n", r.NIC)
	fmt.Fprintf(&b, "%-12s %7s %6s %6s %6s %6s %7s %6s %6s %6s %6s %7s %7s %9s %4s %10s\n",
		"Attack", "kIOPS", "%base", "p99x", "Drops", "Retx", "DupAck",
		"BadQP", "InvNak", "InvAck", "BadPSN", "BadCap", "DataErr", "HARMONIC", "Det", "AbuseScore")
	for _, c := range r.Cells {
		det := "no"
		if c.Detected {
			det = "yes"
		}
		fmt.Fprintf(&b, "%-12s %7.1f %5.1f%% %5.2fx %6d %6d %7d %6d %6d %6d %6d %7d %7d %9.2f %4s %10.1f\n",
			c.Attack, c.KIOPS, c.IOPSPct, c.P99x, c.WireDrops, c.Retx, c.DupAcks,
			c.BadQP, c.InvNaks, c.InvAcks, c.BadPSN, c.BadCaps, c.DataErrs,
			c.MaxScore, det, c.AbuseScore)
	}
	b.WriteString("(AbuseScore uses only protocol-abuse markers — bad QPNs, invalid NAKs/ACKs, half-space PSNs, bad capsules —\n" +
		" all structurally zero under the matched benign-loss row; ack-forge stays marker-silent and surfaces only as DataErrs)\n")
	return b.String()
}
