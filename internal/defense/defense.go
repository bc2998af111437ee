// Package defense implements the mitigation study of Sections II-D and VII:
// a HARMONIC-style monitor that watches Grain-I (per-class volume), Grain-II
// (per-opcode) and Grain-III (per-QP/MR) counters on the server RNIC, and
// the noise-injection mitigation that blurs ULI at a performance cost.
//
// The experiments show exactly the paper's point: counter-based isolation
// flags the Grain-I..III channels, but the intra-MR Grain-IV channel is
// invisible to it — the sender's counters are identical whichever address
// offset it touches — while noise injection trades error rate against
// latency inflation.
package defense

import (
	"math"
	"strconv"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/telemetry"
)

// Snapshot aliases the telemetry counter snapshot the detectors consume.
type Snapshot = telemetry.Snapshot

// features flattens a delta snapshot into the metric vector HARMONIC
// thresholds. Keys are stable strings so training and scoring align.
func features(d Snapshot) map[string]float64 {
	f := map[string]float64{
		"tx_bytes": float64(d.TxBytes),
		"rx_bytes": float64(d.RxBytes),
	}
	// The per-TC and scalar features are present only when nonzero: a
	// family that never fires in a run (loss, abuse, exhaustion, encryption,
	// offloaded chains) adds no key to its vectors, so it cannot move the
	// scores of runs without it.
	for _, c := range [...]struct {
		pfx string
		v   [8]uint64
	}{
		{"tc/", d.RxBytesTC},
		{"pfc/", d.PFCPauses},
		{"wiredrop/", d.WireDropsTC},
	} {
		for tc, v := range c.v {
			if v > 0 {
				f[c.pfx+strconv.Itoa(tc)] = float64(v)
			}
		}
	}
	for _, c := range [...]struct {
		key string
		v   uint64
	}{
		// Loss/reliability.
		{"retx", d.Retransmits},
		{"nak_seq", d.SeqNaks},
		{"rtx_timeout", d.Timeouts},
		{"rx_corrupt", d.RxCorrupt},
		// Protocol abuse (the NeVerMore surface): random drops produce
		// retransmits and NAKs, but never a request for a QPN that was never
		// created, a NAK whose gap head is not outstanding, or an ACK whose
		// PSN disagrees with the request it claims to answer.
		{"bad_qp", d.RxBadQP},
		{"invalid_nak", d.InvalidNaks},
		{"invalid_ack", d.InvalidAcks},
		{"bad_psn", d.RxBadPSN},
		// Finite-resource exhaustion: a merely contended NIC keeps its
		// contexts resident and its CQs drained.
		{"ctx_miss", d.CtxMisses},
		{"ctx_evict", d.CtxEvictions},
		{"cq_overrun", d.CQOverruns},
		// Encryption, on AES-priced profiles only.
		{"enc_ops", d.EncOps},
		{"enc_bytes", d.EncBytes},
		// RedN offload. A NIC-local monitor that sees these separates chain
		// workloads trivially; the redn experiment's point is that the
		// chain's branch pattern also leaks to a co-located tenant that sees
		// none of them.
		{"wait_wqes", d.WaitWQEs},
		{"enable_wqes", d.EnableWQEs},
		{"wait_wakes", d.WaitWakes},
		{"self_modifies", d.SelfModifies},
	} {
		PutNonzero(f, c.key, c.v)
	}
	for k, v := range d.RxMsgs {
		f["op/"+k.String()] = float64(v)
	}
	for k, v := range d.PerMRBytes {
		f["mr/"+strconv.FormatUint(uint64(k), 10)] = float64(v)
	}
	// Per-QP counters aggregate to activity spread: HARMONIC watches for
	// single QPs dominating.
	var qp []float64
	for _, v := range d.PerQPMsgs {
		qp = append(qp, float64(v))
	}
	if len(qp) > 0 {
		f["qp_max"] = stats.Max(qp)
		f["qp_total"] = stats.Sum(qp)
	}
	return f
}

// PutNonzero sets f[key] to n when n is nonzero, so a marker that never
// fires adds no key and an all-zero marker vector scores exactly 0.
func PutNonzero(f map[string]float64, key string, n uint64) {
	if n > 0 {
		f[key] = float64(n)
	}
}

// Harmonic is the counter-based anomaly detector: it learns the per-window
// mean and deviation of every metric from benign traffic, then scores live
// windows by their worst-case normalised deviation.
type Harmonic struct {
	mean map[string]float64
	std  map[string]float64
	// Threshold is the z-score above which a window is flagged.
	Threshold float64
}

// TrainHarmonic fits the baseline from benign window deltas.
func TrainHarmonic(benign []Snapshot) *Harmonic {
	vecs := make([]map[string]float64, len(benign))
	for i, d := range benign {
		vecs[i] = features(d)
	}
	return TrainHarmonicVectors(vecs)
}

// TrainHarmonicVectors fits the baseline from pre-flattened feature vectors.
// Counter snapshots flatten via features(); a caller that scores other
// observables (redn's tenant-side ULI features) builds its own maps.
func TrainHarmonicVectors(benign []map[string]float64) *Harmonic {
	acc := map[string][]float64{}
	for _, vec := range benign {
		for k, v := range vec {
			acc[k] = append(acc[k], v)
		}
	}
	h := &Harmonic{mean: map[string]float64{}, std: map[string]float64{}, Threshold: 4}
	for k, xs := range acc {
		m := stats.Mean(xs)
		h.mean[k] = m
		sd := stats.StdDev(xs)
		// Benign workloads naturally wobble; a production isolation system
		// must tolerate ~15% window-to-window variation or it would alarm
		// constantly. This tolerance is exactly what Grain-IV channels hide
		// beneath.
		if floor := 0.15 * m; sd < floor {
			sd = floor
		}
		if sd < 1 {
			sd = 1 // quantised counters: avoid zero-variance divisions
		}
		h.std[k] = sd
	}
	return h
}

// Score returns the maximum normalised deviation of a window from the
// benign baseline. Metrics unseen in training score by absolute magnitude
// (a brand-new MR or opcode appearing is itself suspicious).
func (h *Harmonic) Score(d Snapshot) float64 { return h.ScoreVector(features(d)) }

// ScoreVector scores a pre-flattened feature vector against the baseline.
func (h *Harmonic) ScoreVector(f map[string]float64) float64 {
	worst := 0.0
	for k, v := range f {
		m, ok := h.mean[k]
		if !ok {
			if v > 0 {
				worst = math.Max(worst, v) // unseen metric active
			}
			continue
		}
		z := math.Abs(v-m) / h.std[k]
		worst = math.Max(worst, z)
	}
	return worst
}

// Detect reports whether the window trips the detector.
func (h *Harmonic) Detect(d Snapshot) bool { return h.Score(d) > h.Threshold }

// ---------------------------------------------------------------------------
// Noise injection (Section VII)
// ---------------------------------------------------------------------------

// NoiseMitigation installs sub-microsecond random service-time noise in the
// NIC's translation pipeline, the paper's "adding noise" defense. Pure
// added *latency* would pipeline away and leave ULI intact (the paper notes
// noise "may still leave detectable traces"); to obscure ULI the noise must
// occupy the serialising stage, which is also why it costs throughput.
// Amplitude 0 disables it. It returns an uninstall function.
func NoiseMitigation(n *nic.NIC, amplitude sim.Duration, rng interface{ Int63n(int64) int64 }) func() {
	if amplitude <= 0 {
		n.TPU().ExtraService = nil
		return func() {}
	}
	n.TPU().ExtraService = func() sim.Duration {
		return sim.Duration(rng.Int63n(int64(amplitude)))
	}
	return func() { n.TPU().ExtraService = nil }
}

// MitigationPoint is one row of the noise-vs-protection tradeoff.
type MitigationPoint struct {
	Amplitude sim.Duration
	// ChannelErrorRate is the covert channel's error rate under this noise.
	ChannelErrorRate float64
	// LatencyInflation is mean benign request latency relative to no-noise.
	LatencyInflation float64
}

// ConstantTimeMitigation enables (or disables) worst-case-padded
// translations on a NIC — the Section VII "hardware partitioning / fixing
// hardware features" defense. Unlike noise, it removes the Grain-III/IV
// carrier entirely; the price is that every translation pays the slowest
// path. It returns an uninstall function that restores the state it found,
// so undoing it on a constant-time profile (nic.WithConstTPU) keeps the
// profile's own TPU.
func ConstantTimeMitigation(n *nic.NIC, on bool) func() {
	was := n.TPU().ConstantTimeEnabled()
	n.TPU().SetConstantTime(on)
	return func() { n.TPU().SetConstantTime(was) }
}
