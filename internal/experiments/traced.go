package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// Traced experiments: the same rigs the figures use, run once with a flight
// recorder attached so the datapath can be inspected event by event. The
// recorder is strictly passive — a traced run produces bit-identical results
// to its untraced twin (the e2e regression test holds the repo to this) —
// so the trace is a faithful record of the run the figures report, not of a
// perturbed variant.

// TraceOutcome bundles one traced run: the recorder holding the event ring
// and metrics registry, plus the experiment's own rendered result.
type TraceOutcome struct {
	Recorder *trace.Recorder
	Summary  string
}

// WriteChrome exports the trace in Chrome trace-event JSON
// (chrome://tracing, Perfetto).
func (o *TraceOutcome) WriteChrome(w io.Writer) error {
	return trace.WriteChrome(w, o.Recorder)
}

// WriteText exports the compact text timeline.
func (o *TraceOutcome) WriteText(w io.Writer) error {
	return trace.WriteText(w, o.Recorder)
}

// TraceFig9 runs the Figure 9 priority channel on one adapter with tracing.
// The channel is fluid-modelled, so the trace carries the sender's symbol
// instants and the monitor's windowed-bandwidth counter track rather than
// per-packet events.
func TraceFig9(p nic.Profile, seed int64) (*TraceOutcome, error) {
	rec := trace.NewRecorder("fig9/"+p.Name, trace.DefaultCapacity)
	ch := covert.NewPriorityChannel(p)
	ch.Trace = rec
	run := ch.Transmit(Fig9Bits, seed)
	return &TraceOutcome{
		Recorder: rec,
		Summary: fmt.Sprintf("fig9 [%s]: decoded=%s errors=%.2f%%\n",
			p.Name, run.Decoded, run.Result.ErrorRate*100),
	}, nil
}

// TraceULI runs one ULI covert transmission (kind "intermr" or "intramr")
// with the recorder wired through the whole rig: engine, both client NICs,
// the server NIC, every fabric link, the verbs layers, the receiver's ULI
// sampler and the sender's symbol switches.
func TraceULI(kind string, p nic.Profile, bits, seed int64) (*TraceOutcome, error) {
	var (
		ch  *covert.ULIChannel
		err error
	)
	switch kind {
	case "intermr":
		ch, err = covert.NewInterMRChannel(p, seed)
	case "intramr":
		ch, err = covert.NewIntraMRChannel(p, seed)
	default:
		return nil, fmt.Errorf("trace: unknown ULI channel %q", kind)
	}
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(kind+"/"+p.Name, trace.DefaultCapacity)
	ch.Cluster.AttachRecorder(rec)
	ch.Trace = rec
	payload := bitstream.RandomBits(uint64(seed)|1, int(bits))
	run, err := ch.Transmit(payload)
	if err != nil {
		return nil, err
	}
	return &TraceOutcome{
		Recorder: rec,
		Summary: fmt.Sprintf("%s [%s]: %d bits, errors=%.2f%%\n",
			kind, p.Name, len(payload), run.Result.ErrorRate*100),
	}, nil
}

// TraceLossRep runs one lossy inter-MR transmission (the lossgrid rig at the
// given drop percentage) with full tracing: the interesting traces, because
// go-back-N recovery shows up as NakSend → Rewind → Retransmit chains and
// retransmit-stall spans (EXPERIMENTS.md walks through reading one).
func TraceLossRep(p nic.Profile, lossPct float64, bits, seed int64) (*TraceOutcome, error) {
	ch, err := covert.NewInterMRChannel(p, seed)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(fmt.Sprintf("lossgrid/%s/%.2f%%", p.Name, lossPct), trace.DefaultCapacity)
	ch.Cluster.AttachRecorder(rec)
	ch.Trace = rec
	ch.Cluster.InjectLoss(sim.DeriveSeed(seed, 1<<32), lossPct/100)
	for _, cn := range []*lab.Conn{ch.RxConn, ch.TxConn} {
		if err := cn.QP.SetRetry(lossRetryTimeout, lossRetryLimit); err != nil {
			return nil, err
		}
	}
	payload := bitstream.RandomBits(uint64(seed)|1, int(bits))
	run, err := ch.Transmit(payload)
	if err != nil {
		return nil, err
	}
	m := rec.Metrics()
	return &TraceOutcome{
		Recorder: rec,
		Summary: fmt.Sprintf("lossgrid [%s] loss=%.2f%%: %d bits, errors=%.2f%%, naks=%d rewinds=%d retx=%d\n",
			p.Name, lossPct, len(payload), run.Result.ErrorRate*100,
			m.SeqNaks(), m.Count(trace.KindRewind), m.Retransmits()),
	}, nil
}

// TraceRigs names the rigs Trace can record.
var TraceRigs = []string{"fig9", "intermr", "intramr", "lossgrid"}

// Trace dispatches a traced rig by name: fig9, intermr, intramr, or
// lossgrid (one rep at 0.5% loss).
func Trace(exp string, p nic.Profile, seed int64) (*TraceOutcome, error) {
	switch exp {
	case "fig9":
		return TraceFig9(p, seed)
	case "intermr", "intramr":
		return TraceULI(exp, p, 32, seed)
	case "lossgrid":
		return TraceLossRep(p, 0.5, 48, seed)
	default:
		return nil, fmt.Errorf("unknown traced experiment %q (try %s)", exp, strings.Join(TraceRigs, ", "))
	}
}
