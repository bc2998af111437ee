package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
)

// The defense grid quantifies the Section VII tradeoff the paper leaves
// qualitative: each hardening step of the CX5-ISO ladder is priced in
// channel error rate (what the attacker loses) and victim goodput (what the
// tenant pays). One row per variant, one column per attack surface.
const (
	defgridPriorityBits = 16 // ~1 bps channel: short payload, like Table V
	defgridInterBits    = 24
	defgridIntraBits    = 40 // KF4 carrier: the distinguishability headline
	defgridLossPct      = 0.25
	defgridVictims      = 2
	defgridVictimSize   = 4096
)

// DefGridVariants is the defense ladder evaluated against a base adapter:
// the unmodified profile, partitioned ISO, ISO plus constant-time
// translations, and ISO plus AES-per-verb pricing.
func DefGridVariants(p nic.Profile) []nic.Profile {
	iso := nic.Isolated(p)
	return []nic.Profile{p, iso, nic.WithConstTPU(iso), nic.WithAES(iso)}
}

// DefGridRow is one variant's full attack battery.
type DefGridRow struct {
	Profile string

	PriorityErr float64 // priority(I+II) channel error rate
	InterErr    float64 // inter-MR (Grain-III) error rate
	IntraErr    float64 // intra-MR (Grain-IV / KF4) error rate
	LossyErr    float64 // intra-MR error rate at defgridLossPct% wire loss
	Flagged     [2]int  // HARMONIC windows flagged on the live intra-MR run
	ExhScore    float64 // qp-ctx exhaustion-marker score

	VictimGbps float64 // per-victim goodput under the 4 KB WRITE aggressor
	SoloPct    float64 // victim goodput as % of its aggressor-idle baseline
	SoloGbps   float64 // fluid solo 4 KB WRITE goodput (defense overhead alone)
}

// DefGridResult is the rendered Pareto grid.
type DefGridResult struct {
	Base    string
	Victims int
	Rows    []DefGridRow // ladder order: base, ISO, ISO+ctTPU, ISO+AES
}

// defgridMetrics names the per-variant cell battery. Each (variant, metric)
// pair is one independent rig with its own derived seed, so the grid is
// identical at any worker count.
var defgridMetrics = []string{"priority", "intermr", "intramr", "lossy", "harmonic", "exhaust", "tenants"}

type defCell struct {
	variant int
	metric  string
	cellID  uint64
}

func defgridCells(variants int) []defCell {
	var cells []defCell
	for v := 0; v < variants; v++ {
		for m, metric := range defgridMetrics {
			cells = append(cells, defCell{variant: v, metric: metric, cellID: uint64(v)<<8 | uint64(m)})
		}
	}
	return cells
}

// defCellOut is the union of cell outcomes; each metric fills its own slice.
type defCellOut struct {
	errRate  float64
	flagged  [2]int
	exhScore float64
	victim   float64
	soloPct  float64
}

// defgridLossy is one lossgrid rep: the intra-MR channel through
// defgridLossPct% random wire loss with retrying RC transports.
func defgridLossy(p nic.Profile, cellID uint64, seed int64) (float64, error) {
	out, err := runLossRep(p, lossRep{channel: "intramr", lossPct: defgridLossPct, cellID: cellID}, defgridInterBits, seed)
	if err != nil {
		return 0, err
	}
	if out.bits == 0 {
		return 0, nil
	}
	return float64(out.errBits) / float64(out.bits), nil
}

func runDefCell(variants []nic.Profile, cell defCell, seed int64) (defCellOut, error) {
	p := variants[cell.variant]
	cellSeed := sim.DeriveSeed(seed, cell.cellID)
	var out defCellOut
	switch cell.metric {
	case "priority":
		payload := bitstream.RandomBits(uint64(cellSeed)|1, defgridPriorityBits)
		run := covert.NewPriorityChannel(p).Transmit(payload, cellSeed)
		out.errRate = run.Result.ErrorRate
	case "intermr":
		ch, err := covert.NewInterMRChannel(p, cellSeed)
		if err != nil {
			return out, err
		}
		run, err := ch.Transmit(bitstream.RandomBits(uint64(cellSeed)|1, defgridInterBits))
		if err != nil {
			return out, err
		}
		out.errRate = run.Result.ErrorRate
	case "intramr":
		ch, err := covert.NewIntraMRChannel(p, cellSeed)
		if err != nil {
			return out, err
		}
		run, err := ch.Transmit(bitstream.RandomBits(uint64(cellSeed)|1, defgridIntraBits))
		if err != nil {
			return out, err
		}
		out.errRate = run.Result.ErrorRate
	case "lossy":
		// runLossRep derives its own per-rep seed from cellID, so hand it the
		// experiment seed, not the cell seed.
		e, err := defgridLossy(p, cell.cellID, seed)
		if err != nil {
			return out, err
		}
		out.errRate = e
	case "harmonic":
		// DefenseEval's counter-detector protocol on the intra-MR channel.
		f, err := harmonicFlags(covert.NewIntraMRChannel, p, cellSeed)
		if err != nil {
			return out, err
		}
		out.flagged = f
	case "exhaust":
		// The qp-ctx regime (64 aggressor QPs thrashing a 24-entry context
		// cache), same shape as the exhaust experiment's hottest QP cell —
		// 16 QPs still fit the cache and score zero on every variant.
		c, err := runExhaustCell(p, defgridVictims, exhaustCellIn{qps: 64, mrs: 1, cellID: cell.cellID}, seed)
		if err != nil {
			return out, err
		}
		out.exhScore = c.ExhScore
	default: // tenants
		c, err := runTenantCell(p, defgridVictims, tenantCellIn{op: nic.OpWrite, size: defgridVictimSize, cellID: cell.cellID}, seed)
		if err != nil {
			return out, err
		}
		out.victim = c.MeanVictimGbps()
		out.soloPct = c.SoloPct()
	}
	return out, nil
}

// DefGrid runs the full attack battery against the defense ladder of a base
// adapter, one worker per (variant, metric) cell.
func DefGrid(p nic.Profile, seed int64, workers int) (DefGridResult, error) {
	variants := DefGridVariants(p)
	res := DefGridResult{Base: p.Name, Victims: defgridVictims}
	cells := defgridCells(len(variants))
	outs, err := parallel.Map(workers, cells,
		func(cell defCell) (defCellOut, error) {
			return runDefCell(variants, cell, seed)
		})
	if err != nil {
		return res, err
	}
	res.Rows = make([]DefGridRow, len(variants))
	for i, v := range variants {
		res.Rows[i] = DefGridRow{
			Profile:  v.Name,
			SoloGbps: nic.Solo(v, nic.FlowSpec{Op: nic.OpWrite, MsgBytes: defgridVictimSize, QPNum: 4}).GoodputGbps,
		}
	}
	for i, cell := range cells {
		row := &res.Rows[cell.variant]
		switch cell.metric {
		case "priority":
			row.PriorityErr = outs[i].errRate
		case "intermr":
			row.InterErr = outs[i].errRate
		case "intramr":
			row.IntraErr = outs[i].errRate
		case "lossy":
			row.LossyErr = outs[i].errRate
		case "harmonic":
			row.Flagged = outs[i].flagged
		case "exhaust":
			row.ExhScore = outs[i].exhScore
		default:
			row.VictimGbps = outs[i].victim
			row.SoloPct = outs[i].soloPct
		}
	}
	return res, nil
}

// Render formats the Pareto grid with a headline verdict per hardening step.
func (r DefGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Defense Pareto grid [base %s]: %d victims, %d B WRITE, loss column at %.2f%%\n",
		r.Base, r.Victims, defgridVictimSize, defgridLossPct)
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %8s %9s %8s %11s %7s %10s\n",
		"Variant", "PrioErr", "InterErr", "IntraErr", "LossyErr", "HARMONIC", "ExhScore", "Victim Gbps", "%solo", "Solo Gbps")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %5d/%-3d %8.1f %11.2f %6.0f%% %10.2f\n",
			row.Profile, row.PriorityErr*100, row.InterErr*100, row.IntraErr*100, row.LossyErr*100,
			row.Flagged[0], row.Flagged[1], row.ExhScore, row.VictimGbps, row.SoloPct, row.SoloGbps)
	}
	if len(r.Rows) == 4 {
		base, iso, ct, aes := r.Rows[0], r.Rows[1], r.Rows[2], r.Rows[3]
		fmt.Fprintf(&b, "ISO closes the scheduling channels: priority error %.0f%% -> %.0f%% at %.0f%% of %s victim goodput\n",
			base.PriorityErr*100, iso.PriorityErr*100, 100*iso.VictimGbps/base.VictimGbps, r.Base)
		fmt.Fprintf(&b, "const-TPU flattens KF4: intra-MR error %.0f%% -> %.0f%% (coin flip) at %.2fx solo goodput\n",
			iso.IntraErr*100, ct.IntraErr*100, ct.SoloGbps/iso.SoloGbps)
		fmt.Fprintf(&b, "AES per verb prices confidentiality at %.0f%% of the ISO solo goodput\n",
			100*aes.SoloGbps/iso.SoloGbps)
	}
	return b.String()
}
