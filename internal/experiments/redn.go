package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/rednlite"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/uli"
)

// The redn experiment measures chain leakage: a tenant offloads a RedN-lite
// conditional branch to the NIC (pre-posted WAIT/ENABLE chain, secret-
// dependent arm), and a co-located ULI prober — seeing only its own read
// latencies — distinguishes taken from not-taken. The chain's management
// WQEs never touch the wire, so the provider's server-side counters carry
// no Grain-II trace of the branch; the leak rides entirely on datapath
// contention, the paper's volatile channel.
const (
	rednTrials     = 5    // trials per (variant, arm) cell
	rednProbes     = 140  // steady-state ULI samples per trial
	rednProbeSize  = 512  // prober read size (bytes)
	rednProbeDepth = 8    // sustained prober queue depth
	rednLoopIters  = 48   // branch body: iterations of the write burst
	rednBurstWr    = 8    // 4 KB writes per iteration
	rednWrSize     = 4096 // branch body write size
	rednFlagMagic  = 7    // the "taken" flag value the chain CASes against
)

// RednRow is one variant's taken-vs-not-taken separation.
type RednRow struct {
	Profile string

	IdleULI  float64 // mean prober ULI, not-taken arm (ns), across trials
	TakenULI float64 // mean prober ULI, taken arm (ns)
	GapNs    float64 // TakenULI - IdleULI

	// Flagged counts taken trials scored above a HARMONIC baseline that was
	// trained on the prober's own ULI features from not-taken trials.
	Flagged [2]int

	// Chain-side observables (the tenant NIC executing the chain). The
	// taken arm pays WAITs per loop barrier; both arms self-modify once
	// (the gate-threshold patch).
	WaitWQEs     uint64
	EnableWQEs   uint64
	SelfModifies uint64

	// ServerChainOps is the sum of WAIT/ENABLE/self-modify counters on the
	// provider NIC — structurally zero: management WQEs never cross the
	// wire, so counter-based isolation at the server cannot see the branch.
	ServerChainOps uint64
}

// RednResult is the rendered chain-leakage table.
type RednResult struct {
	Base string
	Rows []RednRow
}

type rednCell struct {
	variant int
	taken   bool
	trial   int
	cellID  uint64
}

func rednCells(variants int) []rednCell {
	var cells []rednCell
	for v := 0; v < variants; v++ {
		for arm := 0; arm < 2; arm++ {
			for tr := 0; tr < rednTrials; tr++ {
				cells = append(cells, rednCell{
					variant: v, taken: arm == 1, trial: tr,
					cellID: uint64(v)<<8 | uint64(arm)<<4 | uint64(tr),
				})
			}
		}
	}
	return cells
}

type rednCellOut struct {
	trace                          uli.Trace
	waitWQEs, enableWQEs, selfMods uint64
	serverChainOps                 uint64
}

// runRednCell builds one independent rig: the shared server, a prober
// tenant on client 0 and a chain tenant on client 1 whose branch body is a
// sustained write burst. The flag word selects the arm; the chain is
// launched, then the prober measures while (taken) the burst contends with
// its reads or (not-taken) the NIC parks the arm.
func runRednCell(variants []nic.Profile, cell rednCell, seed int64) (rednCellOut, error) {
	var out rednCellOut
	p := variants[cell.variant]
	cfg := lab.DefaultConfig(p)
	cfg.Seed = sim.DeriveSeed(seed, cell.cellID)
	c := lab.New(cfg)
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		return out, err
	}
	probe, err := c.Dial(0, rednProbeDepth+2)
	if err != nil {
		return out, err
	}
	if err := c.Warm(probe, mr); err != nil {
		return out, err
	}
	mainConn, err := c.Dial(1, 64)
	if err != nil {
		return out, err
	}
	branchConn, err := c.Dial(1, 1024)
	if err != nil {
		return out, err
	}
	code, err := branchConn.Client.AllocPD().RegMR(1024*nic.SQSlotBytes, host.Page4K, 0)
	if err != nil {
		return out, err
	}
	mainLane, err := rednlite.NewLane(mainConn.QP, mainConn.CQ, nil)
	if err != nil {
		return out, err
	}
	branchLane, err := rednlite.NewLane(branchConn.QP, branchConn.CQ, code)
	if err != nil {
		return out, err
	}

	// Host-side setup ends here: the flag encodes the secret bit, the chain
	// is assembled and launched, and the tenant host goes quiet.
	const flagOff = 1 << 20
	flag := uint64(rednFlagMagic)
	if !cell.taken {
		flag = rednlite.FalseFloor
	}
	putLE64(mr.Bytes()[flagOff:flagOff+8], flag)

	branch, err := rednlite.NewBranch(branchLane)
	if err != nil {
		return out, err
	}
	payload := make([]byte, rednWrSize)
	branch.Loop(rednLoopIters, func(ch *rednlite.Chain) {
		for k := 0; k < rednBurstWr; k++ {
			ch.Write(payload, mr.Describe(uint64(512<<10+k*rednWrSize)), rednWrSize)
		}
	})
	main := rednlite.New(mainLane).If(mr.Describe(flagOff), rednFlagMagic, branch)
	if err := main.Launch(); err != nil {
		return out, err
	}

	prober := &uli.Prober{QP: probe.QP, CQ: probe.CQ, Remote: mr.Describe(0),
		MsgSize: rednProbeSize, Depth: rednProbeDepth}
	samples, err := prober.Measure(c.Eng, rednProbes)
	if err != nil {
		return out, err
	}
	out.trace = uli.Summarize(samples)

	chainNIC := branchConn.Client.NIC().Counters()
	out.waitWQEs = chainNIC.WaitWQEs
	out.enableWQEs = chainNIC.EnableWQEs
	out.selfMods = chainNIC.SelfModifies
	srv := c.Server.NIC().Counters()
	out.serverChainOps = srv.WaitWQEs + srv.EnableWQEs + srv.SelfModifies
	return out, nil
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func rednFeatures(tr uli.Trace) map[string]float64 {
	return map[string]float64{
		"uli_mean": tr.Mean,
		"uli_p10":  tr.P10,
		"uli_p90":  tr.P90,
	}
}

// Redn runs the chain-leakage experiment on a base profile and its ISO
// variant, one worker per (variant, arm, trial) cell.
func Redn(p nic.Profile, seed int64, workers int) (RednResult, error) {
	variants := []nic.Profile{p, nic.Isolated(p)}
	res := RednResult{Base: p.Name}
	cells := rednCells(len(variants))
	outs, err := parallel.Map(workers, cells,
		func(cell rednCell) (rednCellOut, error) {
			return runRednCell(variants, cell, seed)
		})
	if err != nil {
		return res, err
	}
	res.Rows = make([]RednRow, len(variants))
	for v := range variants {
		row := &res.Rows[v]
		row.Profile = variants[v].Name
		var idle []map[string]float64
		var taken []uli.Trace
		for i, cell := range cells {
			if cell.variant != v {
				continue
			}
			o := outs[i]
			if cell.taken {
				taken = append(taken, o.trace)
				row.TakenULI += o.trace.Mean / rednTrials
				row.WaitWQEs += o.waitWQEs
				row.EnableWQEs += o.enableWQEs
				row.SelfModifies += o.selfMods
			} else {
				idle = append(idle, rednFeatures(o.trace))
				row.IdleULI += o.trace.Mean / rednTrials
			}
			row.ServerChainOps += o.serverChainOps
		}
		row.GapNs = row.TakenULI - row.IdleULI
		// The tenant-side detector: a HARMONIC baseline over the prober's
		// own ULI features from not-taken trials, scoring taken trials.
		h := defense.TrainHarmonicVectors(idle)
		for _, tr := range taken {
			if h.ScoreVector(rednFeatures(tr)) > h.Threshold {
				row.Flagged[0]++
			}
		}
		row.Flagged[1] = len(taken)
	}
	return res, nil
}

// Render formats the chain-leakage table with the headline verdicts.
func (r RednResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RedN chain leakage [base %s]: offloaded branch (%dx%d x %d B writes) vs ULI prober (%d B reads, depth %d)\n",
		r.Base, rednLoopIters, rednBurstWr, rednWrSize, rednProbeSize, rednProbeDepth)
	fmt.Fprintf(&b, "%-22s %12s %12s %9s %8s %22s %10s\n",
		"Variant", "idle ULI", "taken ULI", "gap(ns)", "flagged", "wait/enable/selfmod", "server ops")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %10.1fns %10.1fns %9.1f %5d/%-2d %10d/%d/%d %10d\n",
			row.Profile, row.IdleULI, row.TakenULI, row.GapNs,
			row.Flagged[0], row.Flagged[1],
			row.WaitWQEs, row.EnableWQEs, row.SelfModifies, row.ServerChainOps)
	}
	if len(r.Rows) == 2 {
		base, iso := r.Rows[0], r.Rows[1]
		fmt.Fprintf(&b, "%s: the taken arm shifts prober ULI by %.1f ns; a ULI-trained HARMONIC flags %d/%d taken trials\n",
			base.Profile, base.GapNs, base.Flagged[0], base.Flagged[1])
		resid := 0.0
		if base.GapNs != 0 {
			resid = 100 * iso.GapNs / base.GapNs
		}
		fmt.Fprintf(&b, "%s residual: gap %.1f ns (%.0f%% of %s) — the contention lives in the shared PUs, not the arbiter, so partitioning does not close the chain channel\n",
			iso.Profile, iso.GapNs, resid, base.Profile)
		fmt.Fprintf(&b, "provider-side WAIT/ENABLE/self-modify counters: %d — the branch leaves no Grain-II trace at the server\n",
			base.ServerChainOps+iso.ServerChainOps)
	}
	return b.String()
}
