package defense

import (
	"strconv"

	"github.com/thu-has/ragnar/internal/trace"
)

// MetricsFeatures flattens a flight-recorder metrics registry into the
// latency-distribution features counter snapshots cannot express: per-TC
// fabric queueing-delay quantiles, retransmit stall time and receiver ULI
// sample jitter. These are the observables a Grain-IV channel perturbs
// while leaving every volume counter untouched — the sender's byte counts
// are identical whichever offset it reads, but the serialising translation
// stage still stretches the victim's latency tail.
//
// Values are nanoseconds. Keys are stable strings so vectors merge with
// features() output for TrainHarmonicVectors/ScoreVector. Empty histograms
// contribute nothing, so an untraced run scores exactly as before.
func MetricsFeatures(m *trace.Metrics) map[string]float64 {
	f := map[string]float64{}
	if m == nil {
		return f
	}
	const ns = 1000.0 // histogram durations are picoseconds
	for tc := range m.QueueDelay {
		h := &m.QueueDelay[tc]
		if h.Count() == 0 {
			continue
		}
		pfx := "qdelay/" + strconv.Itoa(tc)
		f[pfx+"/p50"] = float64(h.Quantile(0.5)) / ns
		f[pfx+"/p99"] = float64(h.Quantile(0.99)) / ns
		f[pfx+"/mean"] = h.Mean() / ns
	}
	if h := &m.RetxStall; h.Count() > 0 {
		f["retx_stall/p99"] = float64(h.Quantile(0.99)) / ns
		f["retx_stall/mean"] = h.Mean() / ns
	}
	if h := &m.ULIJitter; h.Count() > 0 {
		f["uli_jitter/p50"] = float64(h.Quantile(0.5)) / ns
		f["uli_jitter/p99"] = float64(h.Quantile(0.99)) / ns
	}
	if h := &m.WQELatency; h.Count() > 0 {
		f["wqe_lat/p50"] = float64(h.Quantile(0.5)) / ns
		f["wqe_lat/p99"] = float64(h.Quantile(0.99)) / ns
	}
	return f
}
