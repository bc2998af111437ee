package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/traffic"
)

// The tenants experiment reproduces noisy-neighbor bandwidth collapse on a
// switched topology: N victim tenants and one aggressor hang off a shared
// switch, and every tenant's traffic toward the server converges on the
// same switch egress port. Victims run a steady stream of moderate WRITEs;
// the aggressor sweeps opcode x message size. In the default sweep the
// shared resource that collapses is the server RNIC's processing pipeline
// (the resource-exhaustion surface of the containerized-RDMA noisy-neighbor
// work): victim bandwidth falls monotonically as the aggressor's message
// size grows, for both opcodes. Past the switch's PFC XOFF threshold a
// second regime opens — one over-threshold aggressor packet pauses every
// uplink's traffic class, the congestion spreading NeVerMore exploits —
// which TestTenantsPFCRegime pins and the docs table footnotes. Grain-I
// counters (per-TC bytes, PFC pauses, drops) expose the squeeze per tenant,
// and a per-victim HARMONIC detector trained on the aggressor-idle baseline
// flags the contention windows.

// Tenant traffic shape: victims post 2 KB WRITEs at depth 2 — deep enough
// to keep the pipe warm, shallow enough that the victims alone leave the
// shared port undersubscribed (the baseline must be clean for degradation
// to be attributable to the aggressor).
const (
	tenantVictimSize  = 2048
	tenantVictimDepth = 2
	tenantAggDepth    = 8
	tenantWindow      = 50 * sim.Microsecond
	tenantWarmup      = 20 * sim.Microsecond
	tenantTrainWins   = 4
	tenantScoreWins   = 4
)

// TenantAggSizes is the default aggressor message-size sweep. It stays in
// the regime where the shared bottleneck is the server RNIC's processing
// pipeline, so more aggressor bytes monotonically squeeze the victims
// (5.4 → 2.9 → 1.0 Gbps per victim on CX5 defaults). Two documented
// regimes lie above it: around 64 KB the server's per-message overheads
// amortise enough that victim bandwidth plateaus non-monotonically, and
// past the switch's 96 KB PFC XOFF threshold a single aggressor packet
// pauses every uplink — including the server's ACK path — throttling the
// aggressor itself as hard as the victims (run `ragnar tenants` with a
// larger size to watch the SwitchPFC column light up).
var TenantAggSizes = []int{1024, 4096, 16384}

// TenantCell is one (aggressor opcode, aggressor size) cell.
type TenantCell struct {
	Op      string // READ or WRITE
	AggSize int
	VictimBandwidth
	SwitchPFC  uint64  // switch PFC pause assertions, contention phase
	SwitchDrop uint64  // switch shared-buffer drops, contention phase
	MaxScore   float64 // highest per-victim HARMONIC score
	Detected   int     // victims whose detector fired in any window
}

// TenantsResult is the rendered experiment outcome.
type TenantsResult struct {
	NIC     string
	Victims int
	Cells   []TenantCell // opcode-major (READ then WRITE), size ascending
}

type tenantCellIn struct {
	op     nic.Opcode
	size   int
	cellID uint64
}

// runTenantCell measures one aggressor configuration on a fresh star rig.
func runTenantCell(p nic.Profile, victims int, in tenantCellIn, seed int64) (TenantCell, error) {
	cfg := lab.DefaultConfig(p)
	cfg.Seed = sim.DeriveSeed(seed, in.cellID)
	cfg.Clients = victims + 1 // client 0 is the aggressor
	c := lab.Star(cfg)
	mr, err := c.RegisterServerMR(8 << 20)
	if err != nil {
		return TenantCell{}, err
	}
	cell := TenantCell{Op: in.op.String(), AggSize: in.size}

	// Victims: steady 2 KB writes, each tenant to its own MR window.
	vs, err := dialVictims(c, mr, 1, victims, tenantVictimSize, tenantVictimDepth, 256<<10)
	if err != nil {
		return TenantCell{}, err
	}
	aggConn, err := c.Dial(0, tenantAggDepth*2)
	if err != nil {
		return TenantCell{}, err
	}
	if err := c.Warm(aggConn, mr); err != nil {
		return TenantCell{}, err
	}
	if err := vs.start(); err != nil {
		return TenantCell{}, err
	}

	// Baseline phase (aggressor idle): warm up, then watch each victim NIC
	// over the training windows. The deltas train one HARMONIC per victim
	// and the completion counts give the solo bandwidth.
	c.RunFor(tenantWarmup)
	ws := vs.watches(c.Eng)
	vs.mark()
	runWindows(c, tenantTrainWins, tenantWindow, ws...)
	cell.SoloGbps = stats.Mean(vs.gbps(tenantTrainWins * tenantWindow))

	// Contention phase: start the aggressor, score every victim window.
	agg := &traffic.Generator{
		QP: aggConn.QP, CQ: aggConn.CQ, Op: in.op,
		MsgSize: in.size, Depth: tenantAggDepth,
		Next: traffic.FixedTarget(mr.Describe(4 << 20)),
	}
	if err := agg.Start(); err != nil {
		return TenantCell{}, err
	}
	sw := c.Switches[0]
	pfc0, drop0 := perTC(sw.PFCPauses), perTC(sw.BufDrops)
	trainAll(ws)
	vs.mark()
	aggStart := agg.Completed()
	runWindows(c, tenantScoreWins, tenantWindow, ws...)
	const scoreDur = tenantScoreWins * tenantWindow
	cell.VictimGbps = vs.gbps(scoreDur)
	cell.MaxScore, cell.Detected = verdict(ws)
	cell.AggGbps = gbpsOf(agg.Completed()-aggStart, in.size, scoreDur)
	cell.SwitchPFC = perTC(sw.PFCPauses) - pfc0
	cell.SwitchDrop = perTC(sw.BufDrops) - drop0
	if err := vs.err(); err != nil {
		return TenantCell{}, fmt.Errorf("tenants: %w", err)
	}
	return cell, nil
}

// gbpsOf converts an operation count into Gbps of payload over a duration.
func gbpsOf(ops uint64, msgSize int, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	bits := float64(ops) * float64(msgSize) * 8
	return bits / d.Seconds() / 1e9
}

// Tenants sweeps aggressor opcode x size against a fixed victim population
// on a shared switch. Every cell is an independent star rig seeded with
// sim.DeriveSeed(seed, cellID), so rows are identical at any worker count.
func Tenants(p nic.Profile, victims int, sizes []int, seed int64, workers int) (TenantsResult, error) {
	if victims < 1 {
		victims = 3
	}
	if len(sizes) == 0 {
		sizes = TenantAggSizes
	}
	var cells []tenantCellIn
	id := uint64(0)
	for _, op := range []nic.Opcode{nic.OpRead, nic.OpWrite} {
		for _, sz := range sizes {
			cells = append(cells, tenantCellIn{op: op, size: sz, cellID: id})
			id++
		}
	}
	outs, err := parallel.Map(workers, cells,
		func(in tenantCellIn) (TenantCell, error) {
			return runTenantCell(p, victims, in, seed)
		})
	if err != nil {
		return TenantsResult{}, err
	}
	return TenantsResult{NIC: p.Name, Victims: victims, Cells: outs}, nil
}

// Render formats the bandwidth-collapse table.
func (r TenantsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TENANTS: noisy-neighbor collapse behind a shared switch port (%s, %d victims + 1 aggressor)\n",
		r.NIC, r.Victims)
	fmt.Fprintf(&b, "%-6s %9s %10s %12s %8s %10s %8s %9s %9s\n",
		"AggOp", "AggSize", "AggGbps", "VictimGbps", "%solo", "SwitchPFC", "BufDrop", "HARMONIC", "Detected")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-6s %9d %10.2f %12.2f %7.1f%% %10d %8d %9.2f %6d/%d\n",
			c.Op, c.AggSize, c.AggGbps, c.MeanVictimGbps(), c.SoloPct(),
			c.SwitchPFC, c.SwitchDrop, c.MaxScore, c.Detected, len(c.VictimGbps))
	}
	b.WriteString("(victims: steady 2KB WRITE depth 2; in this sweep the collapse is server-RNIC pipeline contention — push the size past the switch's PFC XOFF threshold to enter the congestion-spreading regime where SwitchPFC lights up)\n")
	return b.String()
}
