package experiments

import (
	"fmt"
	"strings"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/parallel"
	"github.com/thu-has/ragnar/internal/sim"
)

// The lossgrid experiment sweeps per-packet wire loss against the ULI covert
// channels: Table V's raw/effective bandwidth columns re-measured on a lossy
// fabric (0–1 % drop probability per link). Loss degrades the channel two
// ways: dropped probes blank receiver symbol windows, and go-back-N recovery
// stalls both parties' pipelines, smearing symbols into their neighbours.
// The sweep tops out at 1 %: the symbol-rate channels saturate to coin-flip
// decoding well before data-centre fabrics would be considered unhealthy.
//
// The priority channel is excluded: it is modelled at the fluid level (no
// per-packet fabric traffic), so packet loss cannot perturb it.

// LossPcts is the default loss grid, in percent drop probability per link.
var LossPcts = []float64{0, 0.1, 0.25, 0.5, 1}

// lossRetryTimeout/lossRetryLimit tune the clients' RC transport for a lossy
// fabric: a timeout a little under one symbol time bounds the stall per lost
// packet, and a deep retry budget keeps 5 % loss from erroring a QP mid-run.
const (
	lossRetryTimeout = 10 * sim.Microsecond
	lossRetryLimit   = 1000
)

// LossCell is one (channel, loss) cell aggregated over reps.
type LossCell struct {
	Channel      string
	LossPct      float64
	BandwidthBps float64
	ErrorRate    float64 // pooled bit errors over all reps
	EffectiveBps float64
	WireDrops    uint64 // packets lost on the fabric, summed over reps
	Retransmits  uint64 // requester retransmissions, summed over reps
}

// LossGridResult is the rendered experiment outcome.
type LossGridResult struct {
	NIC   string
	Bits  int
	Reps  int
	Cells []LossCell // channel-major, loss ascending
}

type lossRep struct {
	channel string
	lossPct float64
	rep     int
	cellID  uint64 // canonical index feeding sim.DeriveSeed
}

type lossRepOut struct {
	bps     float64
	errBits int
	bits    int
	drops   uint64
	retrans uint64
}

func lossGridReps(channels []string, losses []float64, reps int) []lossRep {
	var out []lossRep
	id := uint64(0)
	for _, ch := range channels {
		for _, l := range losses {
			for r := 0; r < reps; r++ {
				out = append(out, lossRep{channel: ch, lossPct: l, rep: r, cellID: id})
				id++
			}
		}
	}
	return out
}

// runLossRep transmits one payload over a fresh cluster with the given loss
// rate installed on every link.
func runLossRep(p nic.Profile, rep lossRep, bits int, seed int64) (lossRepOut, error) {
	repSeed := sim.DeriveSeed(seed, rep.cellID)
	var (
		ch  *covert.ULIChannel
		err error
	)
	switch rep.channel {
	case "intermr":
		ch, err = covert.NewInterMRChannel(p, repSeed)
	default: // intramr
		ch, err = covert.NewIntraMRChannel(p, repSeed)
	}
	if err != nil {
		return lossRepOut{}, err
	}
	// Loss streams derive from the rep seed via a fixed offset so they are
	// decorrelated from the cluster's engine stream.
	ch.Cluster.InjectLoss(sim.DeriveSeed(repSeed, 1<<32), rep.lossPct/100)
	for _, cn := range []*lab.Conn{ch.RxConn, ch.TxConn} {
		if err := cn.QP.SetRetry(lossRetryTimeout, lossRetryLimit); err != nil {
			return lossRepOut{}, err
		}
	}
	payload := bitstream.RandomBits(uint64(repSeed)|1, bits)
	run, err := ch.Transmit(payload)
	if err != nil {
		return lossRepOut{}, fmt.Errorf("lossgrid %s loss=%.1f%% rep=%d: %w",
			rep.channel, rep.lossPct, rep.rep, err)
	}
	out := lossRepOut{bps: run.Result.BandwidthBps, bits: len(payload)}
	for i := range payload {
		if run.Decoded[i] != payload[i] {
			out.errBits++
		}
	}
	for _, l := range ch.Cluster.Links {
		for tc := 0; tc < 8; tc++ {
			out.drops += l.Drops(tc) + l.FaultDrops(tc)
		}
	}
	for _, cl := range ch.Cluster.Clients {
		out.retrans += cl.NIC().Counters().Retransmits
	}
	return out, nil
}

// LossGrid sweeps loss rate x ULI covert channel on one adapter, reps
// independent runs per cell (each its own cluster and sim.DeriveSeed
// stream), one worker per rep. Rows are identical at any worker count.
func LossGrid(p nic.Profile, bits, reps int, losses []float64, seed int64, workers int) (LossGridResult, error) {
	if reps < 1 {
		reps = 1
	}
	if len(losses) == 0 {
		losses = LossPcts
	}
	channels := []string{"intermr", "intramr"}
	repsList := lossGridReps(channels, losses, reps)
	outs, err := parallel.Map(workers, repsList,
		func(r lossRep) (lossRepOut, error) {
			return runLossRep(p, r, bits, seed)
		})
	if err != nil {
		return LossGridResult{}, err
	}
	res := LossGridResult{NIC: p.Name, Bits: bits, Reps: reps}
	names := map[string]string{"intermr": "inter-MR(III)", "intramr": "intra-MR(IV)"}
	i := 0
	for _, chName := range channels {
		for _, l := range losses {
			cell := LossCell{Channel: names[chName], LossPct: l}
			var errBits, totBits int
			for r := 0; r < reps; r++ {
				o := outs[i]
				i++
				cell.BandwidthBps = o.bps
				errBits += o.errBits
				totBits += o.bits
				cell.WireDrops += o.drops
				cell.Retransmits += o.retrans
			}
			if totBits > 0 {
				cell.ErrorRate = float64(errBits) / float64(totBits)
			}
			// A fixed-polarity threshold decoder conveys nothing once the
			// error rate reaches 1/2, so the BSC capacity is evaluated with
			// the error clamped there (the e>0.5 "inverted decoder" branch
			// of 1-H2(e) is not available to this receiver).
			e := cell.ErrorRate
			if e > 0.5 {
				e = 0.5
			}
			cell.EffectiveBps = bitstream.EffectiveBandwidth(cell.BandwidthBps, e)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Render formats the loss grid.
func (r LossGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LOSS GRID: ULI covert channels under wire loss (%s, %d bits x %d reps per cell)\n",
		r.NIC, r.Bits, r.Reps)
	fmt.Fprintf(&b, "%-18s %7s %14s %10s %14s %10s %10s\n",
		"Channel", "Loss%", "Bandwidth", "Error", "Effective", "Drops", "Retx")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %7.2f %14s %9.2f%% %14s %10d %10d\n",
			c.Channel, c.LossPct, bps(c.BandwidthBps), c.ErrorRate*100,
			bps(c.EffectiveBps), c.WireDrops, c.Retransmits)
	}
	b.WriteString("(priority channel omitted: fluid-level model, no per-packet wire traffic)\n")
	return b.String()
}
