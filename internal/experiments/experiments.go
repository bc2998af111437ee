// Package experiments assembles every table and figure of the paper's
// evaluation into a runnable, printable experiment. Each function returns a
// structured result with a Render method producing the rows/series the
// paper reports. Registry lists every experiment once; cmd/ragnar and the
// benchmark harness are thin wrappers over this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/revengine"
)

// ---------------------------------------------------------------------------
// Table I — taxonomy (static, with the stealthiness rationale)
// ---------------------------------------------------------------------------

// TaxonomyRow is one line of Table I.
type TaxonomyRow struct {
	Work     string
	Types    string // P / C / S combinations
	Grains   string
	Defended string
	Channel  string
	Stealth  string
}

// Table1Result is Table I, the paper's comparison of RDMA-targeted
// hardware attacks.
type Table1Result []TaxonomyRow

// Table1 returns the paper's comparison of RDMA-targeted hardware attacks.
func Table1() Table1Result {
	return Table1Result{
		{"Zhang [43]", "P", "II", "HARMONIC [22]", "-", "Medium"},
		{"Kong [18]", "P", "II", "HARMONIC [22]", "-", "Medium"},
		{"HUSKY [17]", "P", "II", "HARMONIC [22]", "-", "Medium"},
		{"Kim [13]", "S", "I", "-", "Volatile", "Low"},
		{"Pythia [37]", "C+S", "IV", "cache defenses / huge pages", "Persistent", "High"},
		{"RAGNAR", "C+S", "I/II/III/IV", "-", "Volatile", "High"},
	}
}

// Render formats Table I.
func (rows Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: RDMA-targeted HW attacks\n")
	fmt.Fprintf(&b, "%-12s %-5s %-12s %-28s %-10s %s\n", "Work", "Type", "Grain", "Defended by", "Channel", "Stealth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-5s %-12s %-28s %-10s %s\n", r.Work, r.Types, r.Grains, r.Defended, r.Channel, r.Stealth)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Tables II and III — environment and adapters
// ---------------------------------------------------------------------------

// AdapterRow is one line of Table III: a feature's value on each paper
// adapter.
type AdapterRow struct {
	Feature       string
	CX4, CX5, CX6 string
}

// Table3Result is Table III plus the calibrated microarchitectural
// constants of the modelled adapters.
type Table3Result []AdapterRow

// Table3 returns the modelled adapter parameters.
func Table3() Table3Result {
	row := func(name string, f func(p nic.Profile) string) AdapterRow {
		return AdapterRow{name, f(nic.CX4), f(nic.CX5), f(nic.CX6)}
	}
	return Table3Result{
		row("Speed", func(p nic.Profile) string { return fmt.Sprintf("%.0fGbps", p.LineRateGbps) }),
		row("HostIF GB/s", func(p nic.Profile) string { return fmt.Sprintf("%.1f", p.PCIeGBps) }),
		row("TPU base", func(p nic.Profile) string { return p.TPUBase.String() }),
		row("TPU banks", func(p nic.Profile) string { return fmt.Sprintf("%d", p.TPUBanks) }),
		row("MTT entries", func(p nic.Profile) string { return fmt.Sprintf("%d", p.MTTCacheEntries) }),
		row("Complex pps", func(p nic.Profile) string { return fmt.Sprintf("%.0f/us", p.ComplexPPS) }),
	}
}

// Render formats Table III.
func (rows Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III: ConnectX adapter models\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %12s %10s %10s\n",
		"Feature", "CX-4", "CX-5", "CX-6", "", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10s %10s %12s\n", r.Feature, r.CX4, r.CX5, r.CX6)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 4 — Grain-I/II priority contention sweep
// ---------------------------------------------------------------------------

// Fig4Result carries the sweep matrix and its category summary.
type Fig4Result struct {
	NIC    string
	Cells  []revengine.SweepCell
	Combos int
}

// Fig4 runs the contention sweep. full=false uses a representative subset
// (fast); full=true runs the paper-scale >6000-combination space. workers
// shards the sweep (0 = NumCPU, 1 = sequential) without changing a cell.
func Fig4(p nic.Profile, full bool, workers int) Fig4Result {
	space := revengine.DefaultSweepSpace()
	if !full {
		space.SizesA = []int{64, 512, 4096, 65536}
		space.SizesB = []int{64, 1024, 65536}
		space.QPsA = []int{4}
		space.QPsB = []int{2, 4}
		space.IncludeReverse = true
	}
	cells := revengine.PrioritySweep(p, space, workers)
	return Fig4Result{NIC: p.Name, Cells: cells, Combos: space.Size()}
}

// Fig4Set is Figure 4 on several adapters: the -full run covers all three.
type Fig4Set []Fig4Result

// Render concatenates the per-adapter renders.
func (s Fig4Set) Render() string {
	var b strings.Builder
	for _, r := range s {
		b.WriteString(r.Render())
	}
	return b.String()
}

// Render summarises the matrix the way Figure 4's pies do: per inducer-op /
// indicator-op block, the distribution of indicator reductions, plus the
// key phenomena call-outs.
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 [%s]: %d parameter combinations\n", r.NIC, r.Combos)
	type key struct{ a, bop nic.Opcode }
	blocks := map[key]map[revengine.Reduction]int{}
	for _, c := range r.Cells {
		k := key{c.Inducer.Op, c.Indicator.Op}
		if blocks[k] == nil {
			blocks[k] = map[revengine.Reduction]int{}
		}
		blocks[k][c.IndicatorCat]++
	}
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %8s %9s\n", "Inducer/Indicator", "none", "slight", "half", "severe", "increase")
	// Sort the op-pair blocks so the rendered rows are reproducible (map
	// iteration order is randomised; the golden tests depend on this).
	keys := make([]key, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].bop < keys[j].bop
	})
	for _, k := range keys {
		cat := blocks[k]
		fmt.Fprintf(&b, "%-22s %8d %8d %8d %8d %9d\n",
			fmt.Sprintf("%v vs %v", k.a, k.bop),
			cat[revengine.ReductionNone], cat[revengine.ReductionSlight],
			cat[revengine.ReductionHalf], cat[revengine.ReductionSevere],
			cat[revengine.AbnormalIncrease])
	}
	// Key findings extracted from the matrix.
	var kf1small, kf1big, kf2 *revengine.SweepCell
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Inducer.Op == nic.OpWrite && c.Indicator.Op == nic.OpRead && !c.Indicator.FromServer {
			if c.Inducer.MsgBytes == 64 && c.Indicator.MsgBytes == 1024 {
				kf1small = c
			}
			if c.Inducer.MsgBytes >= 2048 && c.Indicator.MsgBytes == 1024 && kf1big == nil {
				kf1big = c
			}
		}
		if c.Inducer.Op == nic.OpWrite && c.Indicator.Op == nic.OpWrite &&
			c.Inducer.MsgBytes == 64 && c.Indicator.MsgBytes == 64 && c.TotalPctOfSolo > 200 {
			kf2 = c
		}
	}
	if kf1small != nil && kf1big != nil {
		fmt.Fprintf(&b, "KF1 (non-monotonic): 64B write loses %.0f%% vs read; >=2KB write loses %.0f%% while read drops %.0f%%\n",
			kf1small.InducerLossPct, kf1big.InducerLossPct, kf1big.IndicatorLossPct)
	}
	if kf2 != nil {
		fmt.Fprintf(&b, "KF2 (abnormal increment): small-write contention totals %.0f%% of solo (>200%%)\n", kf2.TotalPctOfSolo)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 5-8 — Grain-III/IV ULI sweeps
// ---------------------------------------------------------------------------

// Fig5Result is the same/different-MR ULI comparison.
type Fig5Result struct {
	NIC    string
	Points []revengine.InterMRPoint
}

// Fig5 measures ULI for same-vs-different remote MRs across message sizes
// on CX-4 (the paper's Figure 5 configuration).
func Fig5(p nic.Profile, probes int, seed int64, workers int) (Fig5Result, error) {
	points, err := revengine.InterMRSweep(p, []int{64, 128, 256, 512, 1024, 2048, 4096}, probes, seed, workers)
	return Fig5Result{NIC: p.Name, Points: points}, err
}

// Render prints the Figure 5 series.
func (r Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 [%s]: ULI vs same/different remote MR (ns, mean [p10,p90])\n", r.NIC)
	fmt.Fprintf(&b, "%8s %28s %28s %8s\n", "size", "same MR", "diff MR", "delta")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%8d %10.1f [%8.1f,%8.1f] %10.1f [%8.1f,%8.1f] %+8.1f\n",
			pt.MsgSize,
			pt.SameMR.Mean, pt.SameMR.P10, pt.SameMR.P90,
			pt.DiffMR.Mean, pt.DiffMR.P10, pt.DiffMR.P90,
			pt.DiffMR.Mean-pt.SameMR.Mean)
	}
	return b.String()
}

// OffsetResult is a Figure 6/7/8 trace.
type OffsetResult struct {
	NIC     string
	Figure  string
	MsgSize int
	Points  []revengine.OffsetPoint
}

// Fig6 sweeps absolute offsets with 64 B reads (structure at 8/64/2048 B).
func Fig6(p nic.Profile, probes int, seed int64, workers int) (OffsetResult, error) {
	offsets := offsetsAround()
	points, err := revengine.AbsOffsetSweep(p, 64, offsets, probes, seed, workers)
	return OffsetResult{NIC: p.Name, Figure: "Figure 6 (abs offset, 64B reads)", MsgSize: 64, Points: points}, err
}

// Fig7 sweeps absolute offsets with 1024 B reads.
func Fig7(p nic.Profile, probes int, seed int64, workers int) (OffsetResult, error) {
	offsets := offsetsAround()
	points, err := revengine.AbsOffsetSweep(p, 1024, offsets, probes, seed, workers)
	return OffsetResult{NIC: p.Name, Figure: "Figure 7 (abs offset, 1024B reads)", MsgSize: 1024, Points: points}, err
}

// Fig8 sweeps relative offsets with 64 B reads (bank-conflict periodicity).
func Fig8(p nic.Profile, probes int, seed int64, workers int) (OffsetResult, error) {
	var deltas []uint64
	for d := uint64(64); d <= 2304; d += 64 {
		deltas = append(deltas, d)
	}
	points, err := revengine.RelOffsetSweep(p, 64, deltas, probes, seed, workers)
	return OffsetResult{NIC: p.Name, Figure: "Figure 8 (rel offset, 64B reads)", MsgSize: 64, Points: points}, err
}

// offsetsAround samples the offset axis densely near alignment boundaries
// and coarsely elsewhere, covering two 2048 B periods.
func offsetsAround() []uint64 {
	var out []uint64
	for base := uint64(0); base <= 4096; base += 64 {
		out = append(out, base)
		if base+7 <= 4096 {
			out = append(out, base+7, base+8)
		}
	}
	return out
}

// Render prints an offset trace.
func (r OffsetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]\n", r.Figure, r.NIC)
	fmt.Fprintf(&b, "%8s %10s %10s %10s\n", "offset", "mean", "p10", "p90")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%8d %10.1f %10.1f %10.1f\n", pt.Offset, pt.Trace.Mean, pt.Trace.P10, pt.Trace.P90)
	}
	return b.String()
}
