package trace

import (
	"fmt"
	"io"
	"math"
)

// fmtPS renders a picosecond timestamp or duration in the most readable
// unit, mirroring sim.Duration.String without importing sim.
func fmtPS(ps int64) string {
	switch {
	case ps < 0:
		return "-" + fmtPS(-ps)
	case ps < 1_000:
		return fmt.Sprintf("%dps", ps)
	case ps < 1_000_000:
		return fmt.Sprintf("%.3gns", float64(ps)/1e3)
	case ps < 1_000_000_000:
		return fmt.Sprintf("%.4gus", float64(ps)/1e6)
	case ps < 1_000_000_000_000:
		return fmt.Sprintf("%.4gms", float64(ps)/1e9)
	default:
		return fmt.Sprintf("%.6gs", float64(ps)/1e12)
	}
}

// WriteText renders a recorder's retained events as a compact, grep-able
// timeline — one line per event, chronological (ring) order.
func WriteText(w io.Writer, r *Recorder) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "(tracing disabled)")
		return err
	}
	actors := r.Actors()
	if r.Dropped() > 0 {
		if _, err := fmt.Fprintf(w, "# ring wrapped: %d of %d events retained\n",
			r.Len(), r.Total()); err != nil {
			return err
		}
	}
	for _, ev := range r.Events() {
		actor := "?"
		if int(ev.Actor) < len(actors) {
			actor = actors[ev.Actor]
		}
		line := fmt.Sprintf("%-12s %-10s %-14s %s", fmtPS(ev.At), ev.Kind.Category(), ev.Kind, actor)
		if ev.TC >= 0 {
			line += fmt.Sprintf(" tc=%d", ev.TC)
		}
		if ev.QPN != 0 {
			line += fmt.Sprintf(" qpn=%d", ev.QPN)
		}
		switch ev.Kind {
		case KindPSNSend:
			line += fmt.Sprintf(" psn=%d", ev.PSN)
		case KindNakSend:
			line += fmt.Sprintf(" psn=%d ack_psn=%d", ev.PSN, ev.Aux)
		case KindRewind:
			line += fmt.Sprintf(" ack_psn=%d resend=%d", ev.Aux, ev.Val)
		case KindRetransmit:
			line += fmt.Sprintf(" psn=%d stall=%s", ev.PSN, fmtPS(ev.Dur))
		case KindRtxTimeout:
			line += fmt.Sprintf(" timeouts=%d", ev.Val)
		case KindRetryExc:
			line += fmt.Sprintf(" flushed=%d", ev.Val)
		case KindArbGrant:
			line += fmt.Sprintf(" ring=%d bytes=%d", ev.Aux, ev.Val)
		case KindRxPkt, KindTailDrop, KindWireDrop, KindWireCorrupt:
			line += fmt.Sprintf(" bytes=%d", ev.Val)
		case KindTCEnqueue:
			line += fmt.Sprintf(" bytes=%d qdepth=%d", ev.Val, ev.Aux)
		case KindTCDequeue:
			line += fmt.Sprintf(" bytes=%d qdelay=%s", ev.Val, fmtPS(ev.Dur))
		case KindWireTx:
			line += fmt.Sprintf(" bytes=%d ser=%s", ev.Val, fmtPS(ev.Dur))
		case KindWQEPost:
			line += fmt.Sprintf(" wrid=%d", ev.Val)
		case KindWQESpan, KindCQE:
			line += fmt.Sprintf(" status=%d lat=%s", ev.Aux, fmtPS(ev.Dur))
			if ev.Kind == KindWQESpan {
				line += fmt.Sprintf(" wrid=%d", ev.Val)
			}
		case KindULISample:
			line += fmt.Sprintf(" uli=%.1fns gap=%s", math.Float64frombits(ev.Val), fmtPS(ev.Dur))
		case KindBWSample:
			line += fmt.Sprintf(" bw=%.3fGbps", math.Float64frombits(ev.Val))
		case KindSymbol:
			line += fmt.Sprintf(" bit=%d", ev.Val)
		case KindEngineRun:
			line += fmt.Sprintf(" pending=%d", ev.Val)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns a one-screen digest of a recorder: totals per category
// and the key histogram figures — the text the trace CLI prints alongside
// the exported JSON.
func Summary(r *Recorder) string {
	if r == nil {
		return "(tracing disabled)\n"
	}
	m := r.Metrics()
	s := fmt.Sprintf("trace %q: %d events (%d retained, %d overwritten)\n",
		r.Name(), r.Total(), r.Len(), r.Dropped())
	var byCat = map[string]uint64{}
	for k := 0; k < NumKinds; k++ {
		if m.Counts[k] > 0 {
			byCat[Kind(k).Category()] += m.Counts[k]
		}
	}
	for _, cat := range []string{"engine", "verbs", "nic.arb", "nic.rx", "nic.cqe", "nic.psn", "fabric", "covert.rx", "covert.tx"} {
		if n := byCat[cat]; n > 0 {
			s += fmt.Sprintf("  %-10s %8d events\n", cat, n)
		}
	}
	if m.WQELatency.Count() > 0 {
		s += fmt.Sprintf("  wqe latency   p50=%s p99=%s max=%s\n",
			fmtPS(m.WQELatency.Quantile(0.5)), fmtPS(m.WQELatency.Quantile(0.99)), fmtPS(m.WQELatency.Max()))
	}
	if m.RetxStall.Count() > 0 {
		s += fmt.Sprintf("  retx stall    n=%d p50=%s max=%s\n",
			m.RetxStall.Count(), fmtPS(m.RetxStall.Quantile(0.5)), fmtPS(m.RetxStall.Max()))
	}
	if m.ULIJitter.Count() > 0 {
		s += fmt.Sprintf("  uli gap       n=%d p50=%s p99=%s\n",
			m.ULIJitter.Count(), fmtPS(m.ULIJitter.Quantile(0.5)), fmtPS(m.ULIJitter.Quantile(0.99)))
	}
	return s
}
