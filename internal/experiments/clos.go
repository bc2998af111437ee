package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/traffic"
)

// The clos experiment scales the noisy-neighbor setting from one shared
// switch (tenants) to a leaf-spine fabric: victims spread across leaves
// stream moderate WRITEs to the server, ECMP fans their flows across the
// spines, and one aggressor on the far leaf sweeps its message size. Below
// the PFC XOFF threshold the squeeze is confined to the server RNIC and
// its leaf port; once an aggressor burst crosses it, the server leaf
// pauses its trunk ingress, the pause propagates to the spines and on to
// every leaf — a cross-switch congestion tree, the fabric-scale spreading
// NeVerMore exploits. The per-tier PFC columns and the Tree column show
// that transition directly.
//
// The experiment is also the end-to-end harness for the partitioned
// engine: the same cells run on 1..Leaves+Spines engine domains and must
// render byte-identically (TestClosExperimentDeterministic pins domains x
// workers jointly; scripts/equivalence.sh re-checks the shipped binary).

const (
	closVictimSize  = 2048
	closVictimDepth = 4
	closAggDepth    = 8
	closWindow      = 50 * sim.Microsecond
	closWarmup      = 20 * sim.Microsecond
	closSoloWins    = 2
	closScoreWins   = 3
)

// ClosAggSizes is the default aggressor sweep: one size well under the
// switch XOFF threshold (RNIC-pipeline regime) and one burst above it
// (congestion-tree regime).
var ClosAggSizes = []int{4096, 131072}

// ClosCell is one aggressor configuration on a fresh fabric.
type ClosCell struct {
	Op      string
	AggSize int
	VictimBandwidth
	LeafPFC   uint64   // PFC pause assertions by leaf switches, contention phase
	SpinePFC  uint64   // PFC pause assertions by spine switches, contention phase
	PausedSw  int      // switches that asserted >=1 pause — the congestion tree extent
	SpinePkts []uint64 // packets forwarded per spine, whole run (ECMP spread)
}

// ClosResult is the rendered experiment outcome.
type ClosResult struct {
	NIC          string
	Leaves       int
	Spines       int
	HostsPerLeaf int
	Domains      int // engine domains each cell ran on (after clamping)
	Cells        []ClosCell
}

type closCellIn struct {
	op     nic.Opcode
	size   int
	cellID uint64
}

// runClosCell measures one aggressor configuration on a fresh fabric.
func runClosCell(p nic.Profile, fab lab.ClosConfig, in closCellIn, seed int64) (ClosCell, error) {
	fab.Profile = p
	fab.Seed = sim.DeriveSeed(seed, in.cellID)
	c := lab.Clos(fab)
	mr, err := c.RegisterServerMR(16 << 20)
	if err != nil {
		return ClosCell{}, err
	}
	cell := ClosCell{Op: in.op.String(), AggSize: in.size}

	// The aggressor is the last client — it lives on the last leaf, so its
	// traffic crosses the full fabric. Everyone else is a victim.
	agg := len(c.Clients) - 1
	vs, err := dialVictims(c, mr, 0, agg, closVictimSize, closVictimDepth, 128<<10)
	if err != nil {
		return ClosCell{}, err
	}
	aggConn, err := c.Dial(agg, closAggDepth*2)
	if err != nil {
		return ClosCell{}, err
	}
	if err := c.Warm(aggConn, mr); err != nil {
		return ClosCell{}, err
	}
	if err := vs.start(); err != nil {
		return ClosCell{}, err
	}

	// Baseline (aggressor idle).
	c.RunFor(closWarmup)
	vs.mark()
	c.RunFor(closSoloWins * closWindow)
	cell.SoloGbps = stats.Mean(vs.gbps(closSoloWins * closWindow))

	// Contention.
	aggGen := &traffic.Generator{
		QP: aggConn.QP, CQ: aggConn.CQ, Op: in.op,
		MsgSize: in.size, Depth: closAggDepth,
		Next: traffic.FixedTarget(mr.Describe(15 << 20)),
	}
	if err := aggGen.Start(); err != nil {
		return ClosCell{}, err
	}
	pfc0 := make([]uint64, len(c.Switches))
	for s, sw := range c.Switches {
		pfc0[s] = perTC(sw.PFCPauses)
	}
	vs.mark()
	aggStart := aggGen.Completed()
	const scoreDur = closScoreWins * closWindow
	c.RunFor(scoreDur)
	cell.VictimGbps = vs.gbps(scoreDur)
	cell.AggGbps = gbpsOf(aggGen.Completed()-aggStart, in.size, scoreDur)
	for s, sw := range c.Switches {
		pfc := perTC(sw.PFCPauses) - pfc0[s]
		if s < fab.Leaves {
			cell.LeafPFC += pfc
		} else {
			cell.SpinePFC += pfc
		}
		if pfc > 0 {
			cell.PausedSw++
		}
	}
	for _, sw := range c.Switches[fab.Leaves:] {
		cell.SpinePkts = append(cell.SpinePkts, sw.FwdPackets())
	}
	if err := vs.err(); err != nil {
		return ClosCell{}, fmt.Errorf("clos: %w", err)
	}
	return cell, nil
}

// closSwitch is the fabric switch profile: shallow shared buffer with a
// tight XOFF threshold, the regime real ToR/spine ASICs operate in (KB-scale
// per-port headroom). The single-switch experiments keep the default deep
// buffer; here the shallow pool is what lets a pause at the server leaf back
// traffic up through a spine and on to the aggressor's leaf — without it the
// tree never leaves the first switch.
func closSwitch() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		FwdDelay:       300 * sim.Nanosecond,
		SharedBufBytes: 256 << 10,
		XOffBytes:      16 << 10,
		XOnBytes:       8 << 10,
	}
}

// closFabric picks the fabric scale: 4x2 leaves/spines with 2 hosts per
// leaf (8 hosts) by default, 8x4 with 8 hosts per leaf (64 hosts) in full
// mode — the paper-scale multi-tenant pod.
func closFabric(full bool, domains int) lab.ClosConfig {
	if full {
		return lab.ClosConfig{Leaves: 8, Spines: 4, HostsPerLeaf: 8, Domains: domains, Switch: closSwitch()}
	}
	return lab.ClosConfig{Leaves: 4, Spines: 2, HostsPerLeaf: 2, Domains: domains, Switch: closSwitch()}
}

// Clos sweeps aggressor size on the leaf-spine fabric. domains selects the
// engine partitioning each cell runs on (1 = serial; results are identical
// at any value — that is the partitioned engine's equivalence contract).
// Every cell is an independent fabric seeded with sim.DeriveSeed(seed,
// cellID), so rows are identical at any worker count too.
func Clos(p nic.Profile, domains int, full bool, seed int64, workers int) (ClosResult, error) {
	fab := closFabric(full, domains)
	var cells []closCellIn
	for i, sz := range ClosAggSizes {
		cells = append(cells, closCellIn{op: nic.OpWrite, size: sz, cellID: uint64(i)})
	}
	outs, err := parallel.Map(workers, cells,
		func(in closCellIn) (ClosCell, error) {
			return runClosCell(p, fab, in, seed)
		})
	if err != nil {
		return ClosResult{}, err
	}
	return ClosResult{
		NIC: p.Name, Leaves: fab.Leaves, Spines: fab.Spines, HostsPerLeaf: fab.HostsPerLeaf,
		Domains: min(max(fab.Domains, 1), fab.Leaves+fab.Spines), Cells: outs,
	}, nil
}

// Render formats the congestion-tree table.
func (r ClosResult) Render() string {
	var b strings.Builder
	hosts := r.Leaves * r.HostsPerLeaf
	fmt.Fprintf(&b, "CLOS: cross-switch congestion trees on a leaf-spine fabric (%s, %dx%d leaf/spine, %d hosts, %d engine domain(s))\n",
		r.NIC, r.Leaves, r.Spines, hosts, r.Domains)
	fmt.Fprintf(&b, "%-6s %9s %10s %12s %8s %9s %9s %6s %s\n",
		"AggOp", "AggSize", "AggGbps", "VictimGbps", "%solo", "LeafPFC", "SpinePFC", "Tree", "SpinePkts")
	total := r.Leaves + r.Spines
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-6s %9d %10.2f %12.2f %7.1f%% %9d %9d %3d/%-2d %v\n",
			c.Op, c.AggSize, c.AggGbps, c.MeanVictimGbps(), c.SoloPct(),
			c.LeafPFC, c.SpinePFC, c.PausedSw, total, c.SpinePkts)
	}
	fmt.Fprintf(&b, "(victims: steady %dB WRITE depth %d from every leaf, ECMP-spread over the spines; once an aggressor burst crosses the XOFF threshold the server leaf pauses its trunks and the pause tree spans the fabric — Tree counts switches that asserted PFC)\n",
		closVictimSize, closVictimDepth)
	return b.String()
}
