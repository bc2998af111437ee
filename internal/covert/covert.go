// Package covert implements the three Ragnar covert channels of Section V:
//
//   - the Grain-I+II inter-traffic-class priority channel (~1 bps, Figure 9),
//     built on the fluid contention model;
//   - the Grain-III inter-MR resource channel (tens of Kbps, Figures 10-11),
//     encoding bits in *which MR* the sender touches;
//   - the Grain-IV intra-MR address channel (Table V), encoding bits in the
//     sender's *address offset* within one shared MR.
//
// All three share the structure the paper states: the sender modulates
// resource X, which perturbs the receiver's observable Y (bandwidth or ULI)
// through NIC-internal contention, never through any shared memory value.
package covert

import (
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/stats"
)

// Result is one Table V cell: the channel's measured figures of merit.
type Result struct {
	Channel      string
	NIC          string
	BandwidthBps float64
	ErrorRate    float64
	EffectiveBps float64
	SentBits     int
}

// newResult assembles a Result from a decode outcome.
func newResult(channel, nicName string, bps float64, sent, got bitstream.Bits) Result {
	e := bitstream.ErrorRate(sent, got)
	return Result{
		Channel:      channel,
		NIC:          nicName,
		BandwidthBps: bps,
		ErrorRate:    e,
		EffectiveBps: bitstream.EffectiveBandwidth(bps, e),
		SentBits:     len(sent),
	}
}

// decodeByThreshold converts per-symbol observable means into bits with
// 2-means clustering: a mean above the threshold decodes as 1.
func decodeByThreshold(symbolMeans []float64) bitstream.Bits {
	_, _, th := stats.TwoMeans(symbolMeans)
	out := make(bitstream.Bits, len(symbolMeans))
	for i, m := range symbolMeans {
		if m > th {
			out[i] = 1
		}
	}
	return out
}

// FoldedTrace is the Figure 10/11 visualisation: samples folded onto the
// phase of a two-symbol period, normalised to [0, 1].
type FoldedTrace struct {
	Phase []float64 // 0..1 across the folded two-bit period
	Mean  []float64 // normalised ULI (or bandwidth) per phase bin
}

// Fold bins (time, value) points by phase within a period of two symbols.
func Fold(times []float64, values []float64, period float64, bins int) FoldedTrace {
	if bins < 1 {
		bins = 32
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for i := range times {
		ph := times[i] / period
		ph -= float64(int(ph))
		b := int(ph * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		sums[b] += values[i]
		counts[b]++
	}
	tr := FoldedTrace{Phase: make([]float64, bins), Mean: make([]float64, bins)}
	for b := 0; b < bins; b++ {
		tr.Phase[b] = (float64(b) + 0.5) / float64(bins)
		if counts[b] > 0 {
			tr.Mean[b] = sums[b] / float64(counts[b])
		}
	}
	tr.Mean = stats.Normalize(tr.Mean)
	return tr
}
