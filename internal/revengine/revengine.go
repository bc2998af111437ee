// Package revengine implements the paper's Section IV reverse-engineering
// microbenchmarks: the Grain-I/II priority contention sweep behind the
// Figure 4 conceptual diagram, and the Grain-III/IV ULI sweeps behind
// Figures 5-8 (same/different MR, absolute address offset, relative address
// offset).
package revengine

import (
	"fmt"
	"sync"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/uli"
	"github.com/thu-has/ragnar/internal/verbs"
)

// ---------------------------------------------------------------------------
// Grain-I/II: priority contention sweep (Figure 4)
// ---------------------------------------------------------------------------

// Reduction categorises a bandwidth change the way Figure 4's pie charts
// colour it.
type Reduction int

// Reduction categories (Figure 4 legend).
const (
	ReductionNone    Reduction = iota // dark red: no significant decrease
	ReductionSlight                   // light red: slight decrease
	ReductionHalf                     // medium red: ~50% decrease
	ReductionSevere                   // deep drop: >70%
	AbnormalIncrease                  // blue: bandwidth above solo
)

func (r Reduction) String() string {
	switch r {
	case ReductionNone:
		return "none"
	case ReductionSlight:
		return "slight"
	case ReductionHalf:
		return "half"
	case ReductionSevere:
		return "severe"
	case AbnormalIncrease:
		return "increase"
	}
	return fmt.Sprintf("Reduction(%d)", int(r))
}

// Categorize maps a percentage reduction to its Figure 4 colour class.
func Categorize(pct float64) Reduction {
	switch {
	case pct < -5:
		return AbnormalIncrease
	case pct < 10:
		return ReductionNone
	case pct < 40:
		return ReductionSlight
	case pct < 70:
		return ReductionHalf
	default:
		return ReductionSevere
	}
}

// SweepCell is one parameter combination of the contention benchmark: the
// "inducer" flow A competing with the "indicator" flow B (the paper's
// Inr./Ind. axes).
type SweepCell struct {
	Inducer   nic.FlowSpec
	Indicator nic.FlowSpec
	// Solo and contended goodputs (Gbps).
	SoloInducer   float64
	SoloIndicator float64
	ContInducer   float64
	ContIndicator float64
	// Reductions in percent and their categories.
	InducerLossPct   float64
	IndicatorLossPct float64
	InducerCat       Reduction
	IndicatorCat     Reduction
	// TotalPctOfSolo is aggregate contended bandwidth relative to the
	// indicator's solo (the >200% metric of Key Finding 2 uses same-spec
	// flows where inducer solo == indicator solo).
	TotalPctOfSolo float64
}

// SweepSpace defines the parameter grid. The defaults reproduce the paper's
// "over 6000 parameter combinations".
type SweepSpace struct {
	OpPairs [][2]nic.Opcode
	SizesA  []int
	SizesB  []int
	QPsA    []int
	QPsB    []int
	// IncludeReverse additionally runs each pair with the indicator flow
	// posted from the server side (the paper's reverse traffic).
	IncludeReverse bool
}

// DefaultSweepSpace matches the paper's scale: >6000 combinations.
func DefaultSweepSpace() SweepSpace {
	return SweepSpace{
		OpPairs: [][2]nic.Opcode{
			{nic.OpWrite, nic.OpRead},
			{nic.OpRead, nic.OpWrite},
			{nic.OpWrite, nic.OpWrite},
			{nic.OpRead, nic.OpRead},
			{nic.OpAtomicFAA, nic.OpRead},
			{nic.OpAtomicFAA, nic.OpWrite},
		},
		SizesA:         []int{64, 256, 512, 1024, 4096, 16384, 65536},
		SizesB:         []int{64, 256, 512, 1024, 4096, 16384, 65536},
		QPsA:           []int{1, 2, 4, 16},
		QPsB:           []int{1, 2, 4, 16},
		IncludeReverse: true,
	}
}

// Size reports how many combinations the space contains.
func (s SweepSpace) Size() int {
	n := len(s.OpPairs) * len(s.SizesA) * len(s.SizesB) * len(s.QPsA) * len(s.QPsB)
	if s.IncludeReverse {
		n *= 2
	}
	return n
}

// Cells enumerates the space's (inducer, indicator) flow pairs in canonical
// sweep order — the order PrioritySweep's output follows at any worker
// count. Atomic inducers ignore SizesA (atomics are 8 B by definition).
func (s SweepSpace) Cells() [][2]nic.FlowSpec {
	reverses := []bool{false}
	if s.IncludeReverse {
		reverses = []bool{false, true}
	}
	out := make([][2]nic.FlowSpec, 0, s.Size())
	for _, pair := range s.OpPairs {
		for _, sa := range s.SizesA {
			for _, sb := range s.SizesB {
				for _, qa := range s.QPsA {
					for _, qb := range s.QPsB {
						for _, rev := range reverses {
							a := nic.FlowSpec{Name: "inducer", Op: pair[0], MsgBytes: sa, QPNum: qa, Client: 0}
							b := nic.FlowSpec{Name: "indicator", Op: pair[1], MsgBytes: sb, QPNum: qb, Client: 1, FromServer: rev}
							if a.Op == nic.OpAtomicFAA || a.Op == nic.OpAtomicCAS {
								a.MsgBytes = 8
							}
							out = append(out, [2]nic.FlowSpec{a, b})
						}
					}
				}
			}
		}
	}
	return out
}

// PrioritySweep evaluates every combination in the space on the given
// adapter using the fluid contention model and returns the matrix, sharded
// across `workers` goroutines (0 = NumCPU, 1 = sequential). The fluid
// solver is a pure function of (profile, flows), so cells are independent
// and the matrix is identical at any worker count, in Cells() order.
func PrioritySweep(p nic.Profile, space SweepSpace, workers int) []SweepCell {
	// Solo goodputs repeat across cells; memoise them. nic.Solo is pure, so
	// concurrent duplicate computation is only wasted work, never a wrong
	// or nondeterministic value — first-stored wins and all values agree.
	var soloCache sync.Map
	solo := func(f nic.FlowSpec) nic.FlowResult {
		key := fmt.Sprintf("%d/%d/%d/%v", f.Op, f.MsgBytes, f.QPNum, f.FromServer)
		if r, ok := soloCache.Load(key); ok {
			return r.(nic.FlowResult)
		}
		r := nic.Solo(p, f)
		soloCache.Store(key, r)
		return r
	}
	cells, err := parallel.Map(workers, space.Cells(),
		func(pair [2]nic.FlowSpec) (SweepCell, error) {
			return evalCell(p, pair[0], pair[1], solo), nil
		})
	if err != nil {
		// The cell fn never returns an error, so this can only be a captured
		// worker panic — surface it as the panic it was.
		panic(err)
	}
	return cells
}

func evalCell(p nic.Profile, a, b nic.FlowSpec, solo func(nic.FlowSpec) nic.FlowResult) SweepCell {
	sa, sb := solo(a), solo(b)
	res := nic.Solve(p, []nic.FlowSpec{a, b})
	cell := SweepCell{
		Inducer: a, Indicator: b,
		SoloInducer: sa.GoodputGbps, SoloIndicator: sb.GoodputGbps,
		ContInducer: res[0].GoodputGbps, ContIndicator: res[1].GoodputGbps,
		InducerLossPct:   nic.ReductionPct(sa, res[0]),
		IndicatorLossPct: nic.ReductionPct(sb, res[1]),
	}
	cell.InducerCat = Categorize(cell.InducerLossPct)
	cell.IndicatorCat = Categorize(cell.IndicatorLossPct)
	if sb.GoodputGbps > 0 {
		cell.TotalPctOfSolo = (res[0].GoodputGbps + res[1].GoodputGbps) / sb.GoodputGbps * 100
	}
	return cell
}

// ---------------------------------------------------------------------------
// Grain-III/IV: ULI sweeps (Figures 5-8)
// ---------------------------------------------------------------------------

// OffsetPoint is one x-position of a Figure 6/7/8 trace.
type OffsetPoint struct {
	Offset uint64
	Trace  uli.Trace
}

// newProbeRig builds the paper's Table IV configuration: MRs on 2 MB huge
// pages, 2 QPs in the same PD, single-threaded probing.
func newProbeRig(p nic.Profile, seed int64, mrs int, depth int) (*lab.Cluster, *lab.Conn, []*verbs.MR, error) {
	cfg := lab.DefaultConfig(p)
	cfg.Seed = seed
	c := lab.New(cfg)
	var regions []*verbs.MR
	for i := 0; i < mrs; i++ {
		mr, err := c.RegisterServerMR(2 << 20)
		if err != nil {
			return nil, nil, nil, err
		}
		regions = append(regions, mr)
	}
	conn, err := c.Dial(0, depth+2)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, mr := range regions {
		if err := c.Warm(conn, mr); err != nil {
			return nil, nil, nil, err
		}
	}
	return c, conn, regions, nil
}

// AbsOffsetSweep reproduces Figures 6 and 7: alternately access offset 0 and
// a variable offset with msgSize RDMA Reads in the same remote MR, and
// report the ULI trace at each offset.
//
// Each offset is an independent cell: it gets its own probe rig (cluster,
// connection, warmed MR) seeded with sim.DeriveSeed(seed, offset), so the
// random stream a cell sees depends only on (seed, offset) — never on which
// worker ran it or what other cells did. Traces are identical at any
// worker count.
func AbsOffsetSweep(p nic.Profile, msgSize int, offsets []uint64, probesPer int, seed int64, workers int) ([]OffsetPoint, error) {
	return parallel.Map(workers, offsets,
		func(off uint64) (OffsetPoint, error) {
			c, conn, mrs, err := newProbeRig(p, sim.DeriveSeed(seed, off), 1, 8)
			if err != nil {
				return OffsetPoint{}, err
			}
			mr := mrs[0]
			prober := &uli.Prober{
				QP: conn.QP, CQ: conn.CQ, Remote: mr.Describe(0), MsgSize: msgSize, Depth: 8,
				NextOffset: func(i int) uint64 {
					if i%2 == 0 {
						return 0
					}
					return off
				},
			}
			samples, err := prober.Measure(c.Eng, probesPer)
			if err != nil {
				return OffsetPoint{}, err
			}
			// Summarise only the probes that touched the variable offset.
			var at []uli.Sample
			for _, s := range samples {
				if s.Offset == off {
					at = append(at, s)
				}
			}
			if off == 0 {
				at = samples
			}
			return OffsetPoint{Offset: off, Trace: uli.Summarize(at)}, nil
		})
}

// RelOffsetSweep reproduces Figure 8: alternately access a base offset and
// base+delta, and report the ULI trace as a function of the *relative*
// offset delta. Cells shard per delta exactly like AbsOffsetSweep.
func RelOffsetSweep(p nic.Profile, msgSize int, deltas []uint64, probesPer int, seed int64, workers int) ([]OffsetPoint, error) {
	// Fixed unaligned base so the absolute-offset structure stays constant
	// while delta varies.
	const base = 8192 + 4
	return parallel.Map(workers, deltas,
		func(d uint64) (OffsetPoint, error) {
			c, conn, mrs, err := newProbeRig(p, sim.DeriveSeed(seed, d), 1, 8)
			if err != nil {
				return OffsetPoint{}, err
			}
			mr := mrs[0]
			prober := &uli.Prober{
				QP: conn.QP, CQ: conn.CQ, Remote: mr.Describe(0), MsgSize: msgSize, Depth: 8,
				NextOffset: func(i int) uint64 {
					if i%2 == 0 {
						return base
					}
					return base + d
				},
			}
			samples, err := prober.Measure(c.Eng, probesPer)
			if err != nil {
				return OffsetPoint{}, err
			}
			return OffsetPoint{Offset: d, Trace: uli.Summarize(samples)}, nil
		})
}

// InterMRPoint is one message size of the Figure 5 comparison.
type InterMRPoint struct {
	MsgSize int
	SameMR  uli.Trace
	DiffMR  uli.Trace
}

// InterMRSweep reproduces Figure 5: alternately access two addresses that
// live either in the same remote MR or in two different remote MRs, across
// message sizes. Each message size is an independent cell with its own rig
// seeded by sim.DeriveSeed(seed, size); the same-MR and different-MR
// measurements of one cell share that rig (the figure compares them on
// identical plumbing) and run back-to-back in fixed order.
func InterMRSweep(p nic.Profile, sizes []int, probesPer int, seed int64, workers int) ([]InterMRPoint, error) {
	return parallel.Map(workers, sizes,
		func(size int) (InterMRPoint, error) {
			c, conn, mrs, err := newProbeRig(p, sim.DeriveSeed(seed, uint64(size)), 2, 8)
			if err != nil {
				return InterMRPoint{}, err
			}
			mrA, mrB := mrs[0], mrs[1]
			measure := func(remotes [2]verbs.RemoteBuf) (uli.Trace, error) {
				prober := &uli.Prober{
					QP: conn.QP, CQ: conn.CQ, Remote: remotes[0], MsgSize: size, Depth: 8,
					NextRemote: func(i int) verbs.RemoteBuf { return remotes[i%2] },
				}
				samples, err := prober.Measure(c.Eng, probesPer)
				if err != nil {
					return uli.Trace{}, err
				}
				return uli.Summarize(samples), nil
			}
			same, err := measure([2]verbs.RemoteBuf{mrA.Describe(0), mrA.Describe(mrA.Size() / 2)})
			if err != nil {
				return InterMRPoint{}, err
			}
			diff, err := measure([2]verbs.RemoteBuf{mrA.Describe(0), mrB.Describe(0)})
			if err != nil {
				return InterMRPoint{}, err
			}
			return InterMRPoint{MsgSize: size, SameMR: same, DiffMR: diff}, nil
		})
}
