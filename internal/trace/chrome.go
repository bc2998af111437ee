package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing and Perfetto both load it). Field names follow the
// published spec: ph is the phase, ts/dur are microseconds, pid/tid group
// events into process/thread tracks.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// psToUS converts picoseconds to the format's microsecond unit.
func psToUS(ps int64) float64 { return float64(ps) / 1e6 }

// WriteChrome exports one or more recorders as Chrome trace-event JSON.
// Each recorder becomes one process track (pid = shard index + 1) and each
// registered actor one thread track within it, so a parallel sweep's
// per-cell recorders land side by side in the viewer. Output is
// deterministic: events keep their ring order and JSON map keys marshal
// sorted.
func WriteChrome(w io.Writer, recs ...*Recorder) error {
	file := chromeFile{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	for ri, r := range recs {
		if r == nil {
			continue
		}
		pid := ri + 1
		name := r.Name()
		if name == "" {
			name = fmt.Sprintf("shard%d", ri)
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": name},
		})
		for ai, actor := range r.Actors() {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: ai,
				Args: map[string]any{"name": actor},
			})
		}
		for _, ev := range r.Events() {
			file.TraceEvents = append(file.TraceEvents, encodeEvent(ev, pid))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// encodeEvent maps one typed event onto the Chrome schema. Span kinds end
// at ev.At and stretch Dur back in time; counter kinds carry their value in
// args; everything else is a thread-scoped instant.
func encodeEvent(ev Event, pid int) chromeEvent {
	ce := chromeEvent{
		Name:  ev.Kind.String(),
		Cat:   ev.Kind.Category(),
		Phase: "i",
		TS:    psToUS(ev.At),
		PID:   pid,
		TID:   int(ev.Actor),
		Args:  eventArgs(ev),
	}
	switch {
	case ev.Kind.Span():
		ce.Phase = "X"
		d := psToUS(ev.Dur)
		ce.Dur = &d
		ce.TS = psToUS(ev.At - ev.Dur)
	case ev.Kind.Counter():
		ce.Phase = "C"
		ce.Args = map[string]any{"value": math.Float64frombits(ev.Val)}
	default:
		ce.Scope = "t"
	}
	return ce
}

// eventArgs picks the human-meaningful arguments per kind.
func eventArgs(ev Event) map[string]any {
	args := map[string]any{}
	if ev.TC >= 0 {
		args["tc"] = int(ev.TC)
	}
	if ev.QPN != 0 {
		args["qpn"] = ev.QPN
	}
	switch ev.Kind {
	case KindPSNSend, KindNakSend, KindRetransmit:
		args["psn"] = ev.PSN
	}
	switch ev.Kind {
	case KindArbGrant:
		args["bytes"] = ev.Val
		args["ring"] = ev.Aux
	case KindRxPkt, KindTCEnqueue, KindTCDequeue, KindWireTx, KindWireDrop,
		KindWireCorrupt, KindTailDrop:
		args["bytes"] = ev.Val
		if ev.Kind == KindTCEnqueue {
			args["qdepth"] = ev.Aux
		}
	case KindNakSend, KindRewind:
		args["ack_psn"] = ev.Aux
		if ev.Kind == KindRewind {
			args["resend"] = ev.Val
		}
	case KindRtxTimeout:
		args["timeouts"] = ev.Val
	case KindRetryExc:
		args["flushed"] = ev.Val
	case KindWQEPost, KindWQESpan:
		args["wrid"] = ev.Val
		if ev.Kind == KindWQESpan {
			args["status"] = ev.Aux
		}
	case KindCQE:
		args["status"] = ev.Aux
	case KindSymbol:
		args["bit"] = ev.Val
	}
	if len(args) == 0 {
		return nil
	}
	return args
}
