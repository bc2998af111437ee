package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/pythia"
	"github.com/thu-has/ragnar/internal/sim"
)

// Fig9Bits is the bitstream transmitted in Figure 9.
var Fig9Bits = bitstream.MustParseBits("1101111101010010")

// Fig9Result carries the priority-channel traces for all NICs.
type Fig9Result struct {
	Runs map[string]*covert.PriorityRun
}

// Fig9 transmits the paper's bitstream over the priority channel on every
// adapter, one worker per NIC. Every run keeps the same per-NIC seed it had
// sequentially, so the traces are unchanged at any worker count.
func Fig9(seed int64, workers int) Fig9Result {
	runs, err := parallel.Map(workers, nic.PaperProfiles,
		func(p nic.Profile) (*covert.PriorityRun, error) {
			return covert.NewPriorityChannel(p).Transmit(Fig9Bits, seed), nil
		})
	if err != nil {
		panic(err) // only a captured worker panic: the cell fn never errors
	}
	out := Fig9Result{Runs: map[string]*covert.PriorityRun{}}
	for i, p := range nic.PaperProfiles {
		out.Runs[p.Name] = runs[i]
	}
	return out
}

// Render prints the decoded streams and a coarse bandwidth-vs-time sketch.
func (r Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: priority covert channel, bits %s\n", Fig9Bits)
	for _, p := range nic.PaperProfiles {
		run := r.Runs[p.Name]
		fmt.Fprintf(&b, "%-12s decoded=%s errors=%.2f%% bw=%.1f bps\n",
			p.Name, run.Decoded, run.Result.ErrorRate*100, run.Result.BandwidthBps)
		// One character per symbol: _ = deep drop (bit0), # = slight (bit1).
		perSym := len(run.Trace) / len(Fig9Bits)
		var spark []byte
		for s := 0; s < len(Fig9Bits); s++ {
			var acc float64
			for w := 0; w < perSym; w++ {
				acc += run.Trace[s*perSym+w].BW
			}
			if run.Decoded[s] == 1 {
				spark = append(spark, '#')
			} else {
				spark = append(spark, '_')
			}
			_ = acc
		}
		fmt.Fprintf(&b, "%-12s trace    %s\n", "", spark)
	}
	return b.String()
}

// Fig10Result is the folded ULI view of a periodic bitstream at SQ 256.
type Fig10Result struct {
	NIC    string
	Folded covert.FoldedTrace
	Result covert.Result
}

// Fig10 reproduces the folded-ULI demonstration: 1024 B reads, max send
// queue 256, CX-4, periodic 1-0 bits.
func Fig10(seed int64) (Fig10Result, error) {
	ch, err := covert.NewInterMRChannel(nic.CX4, seed)
	if err != nil {
		return Fig10Result{}, err
	}
	// Figure 10 overrides: deep queue, 1 KiB reads, slower symbols so the
	// deep queue still settles within each symbol. The deeper queues need
	// fresh connections with matching send-queue caps.
	rx, err := ch.Cluster.Dial(0, 258)
	if err != nil {
		return Fig10Result{}, err
	}
	tx, err := ch.Cluster.Dial(1, 34)
	if err != nil {
		return Fig10Result{}, err
	}
	ch.RxConn, ch.TxConn = rx, tx
	ch.RxSize = 1024
	ch.TxSize = 1024
	ch.RxDepth = 256
	ch.TxDepth = 32
	ch.SymbolTime = 800 * sim.Microsecond
	ch.BoundaryJitter = 0
	bits := make(bitstream.Bits, 20)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	run, err := ch.Transmit(bits)
	if err != nil {
		return Fig10Result{}, err
	}
	return Fig10Result{NIC: nic.CX4.Name, Folded: run.Folded, Result: run.Result}, nil
}

// Render prints the folded two-symbol period.
func (r Fig10Result) Render() string {
	return renderFolded(fmt.Sprintf("Figure 10 [%s]: folded ULI, 1024B reads, SQ 256", r.NIC), r.Folded)
}

// Fig11Result is the per-NIC folded inter-MR channel period.
type Fig11Result struct {
	Folds map[string]covert.FoldedTrace
}

// Fig11 folds the inter-MR channel's ULI over a two-bit period on all NICs
// under the best parameter combinations, one worker per NIC.
func Fig11(seed int64, workers int) (Fig11Result, error) {
	out := Fig11Result{Folds: map[string]covert.FoldedTrace{}}
	bits := make(bitstream.Bits, 24)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	folds, err := parallel.Map(workers, nic.PaperProfiles,
		func(p nic.Profile) (covert.FoldedTrace, error) {
			ch, err := covert.NewInterMRChannel(p, seed)
			if err != nil {
				return covert.FoldedTrace{}, err
			}
			ch.BoundaryJitter = 0
			run, err := ch.Transmit(bits)
			if err != nil {
				return covert.FoldedTrace{}, err
			}
			return run.Folded, nil
		})
	if err != nil {
		return out, err
	}
	for i, p := range nic.PaperProfiles {
		out.Folds[p.Name] = folds[i]
	}
	return out, nil
}

// Render prints each NIC's folded period.
func (r Fig11Result) Render() string {
	var b strings.Builder
	for _, p := range nic.PaperProfiles {
		b.WriteString(renderFolded(fmt.Sprintf("Figure 11 [%s]: inter-MR folded period", p.Name), r.Folds[p.Name]))
	}
	return b.String()
}

func renderFolded(title string, f covert.FoldedTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i := range f.Phase {
		bar := int(f.Mean[i] * 40)
		fmt.Fprintf(&b, "%5.2f %6.2f %s\n", f.Phase[i], f.Mean[i], strings.Repeat("*", bar))
	}
	return b.String()
}

// Table5Row is one channel x NIC cell of Table V.
type Table5Row struct {
	Channel      string
	NIC          string
	BandwidthBps float64
	ErrorRate    float64
	EffectiveBps float64
}

// Table5Result aggregates all nine cells plus the priority row.
type Table5Result struct {
	Rows []Table5Row
}

// table5Cell is one channel x NIC evaluation of Table V, in the table's
// canonical row order (priority rows, then inter-MR, then intra-MR).
type table5Cell struct {
	kind string // "priority", "intermr", "intramr"
	p    nic.Profile
}

func table5Cells() []table5Cell {
	var cells []table5Cell
	for _, kind := range []string{"priority", "intermr", "intramr"} {
		for _, p := range nic.PaperProfiles {
			cells = append(cells, table5Cell{kind: kind, p: p})
		}
	}
	return cells
}

// Table5 evaluates all three covert channels on all three adapters with a
// random payload of the given length, one worker per cell. Every cell
// builds its own simulated cluster from the shared experiment seed (the
// cells were already independent rigs sequentially), so rows are identical
// at any worker count and stay in canonical order.
func Table5(bits int, seed int64, workers int) (Table5Result, error) {
	payload := bitstream.RandomBits(uint64(seed)|1, bits)
	rows, err := parallel.Map(workers, table5Cells(),
		func(cell table5Cell) (Table5Row, error) {
			switch cell.kind {
			case "priority":
				// The ~1 bps channel uses a short payload or it would take
				// minutes of virtual time for no added information.
				run := covert.NewPriorityChannel(cell.p).Transmit(payload[:min(16, len(payload))], seed)
				return row(run.Result), nil
			case "intermr":
				ch, err := covert.NewInterMRChannel(cell.p, seed)
				if err != nil {
					return Table5Row{}, err
				}
				run, err := ch.Transmit(payload)
				if err != nil {
					return Table5Row{}, err
				}
				return row(run.Result), nil
			default: // intramr
				ch, err := covert.NewIntraMRChannel(cell.p, seed)
				if err != nil {
					return Table5Row{}, err
				}
				run, err := ch.Transmit(payload)
				if err != nil {
					return Table5Row{}, err
				}
				return row(run.Result), nil
			}
		})
	return Table5Result{Rows: rows}, err
}

func row(r covert.Result) Table5Row {
	return Table5Row{Channel: r.Channel, NIC: r.NIC,
		BandwidthBps: r.BandwidthBps, ErrorRate: r.ErrorRate, EffectiveBps: r.EffectiveBps}
}

// Render formats Table V.
func (r Table5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE V: covert channels\n")
	fmt.Fprintf(&b, "%-18s %-12s %14s %10s %14s\n", "Channel", "NIC", "Bandwidth", "Error", "Effective")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %-12s %14s %9.2f%% %14s\n",
			row.Channel, row.NIC, bps(row.BandwidthBps), row.ErrorRate*100, bps(row.EffectiveBps))
	}
	return b.String()
}

func bps(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.1f Kbps", v/1000)
	}
	return fmt.Sprintf("%.1f bps", v)
}

// PythiaResult is the baseline comparison behind the 3.2x claim.
type PythiaResult struct {
	PythiaBps  float64
	PythiaErr  float64
	RagnarBps  float64
	SpeedupX   float64
	EvictPages int
}

// PythiaCompare runs the Pythia baseline on CX-5 and compares it against
// Ragnar's inter-MR channel rate.
func PythiaCompare(bits int, seed int64) (PythiaResult, error) {
	ch, err := pythia.New(nic.CX5, seed)
	if err != nil {
		return PythiaResult{}, err
	}
	run, err := ch.Transmit(bitstream.RandomBits(uint64(seed)|1, bits))
	if err != nil {
		return PythiaResult{}, err
	}
	ragnar, err := covert.NewInterMRChannel(nic.CX5, seed)
	if err != nil {
		return PythiaResult{}, err
	}
	rbps := 1.0 / ragnar.SymbolTime.Seconds()
	return PythiaResult{
		PythiaBps:  run.Result.BandwidthBps,
		PythiaErr:  run.Result.ErrorRate,
		RagnarBps:  rbps,
		SpeedupX:   rbps / run.Result.BandwidthBps,
		EvictPages: ch.EvictionSetSize(),
	}, nil
}

// Render formats the comparison.
func (r PythiaResult) Render() string {
	return fmt.Sprintf("Pythia baseline (CX-5): %s at %.1f%% error (eviction set %d pages)\nRagnar inter-MR (CX-5): %s  ->  %.1fx Pythia\n",
		bps(r.PythiaBps), r.PythiaErr*100, r.EvictPages, bps(r.RagnarBps), r.SpeedupX)
}
