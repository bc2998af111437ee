// Package stats implements the small statistical toolkit the Ragnar
// measurement and decoding pipeline relies on: summary statistics,
// percentiles, Pearson correlation, least-squares fitting, histograms and
// trace normalisation. Everything operates on float64 slices and is
// allocation-conscious so hot decode loops can use it directly.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs; zero for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs; zero for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; +Inf for empty input.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; -Inf for empty input.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return percentileSorted(cp, p)
}

// Percentiles computes several percentiles with a single sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for i, p := range ps {
		out[i] = percentileSorted(cp, p)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It errors if the lengths differ, fewer than two points are given, or
// either series is constant.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: constant series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// LinearFit returns the least-squares line y = slope*x + intercept and the
// Pearson correlation of the fit. It errors on degenerate inputs.
func LinearFit(xs, ys []float64) (slope, intercept, r float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, 0, 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: constant x")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	r, err = Pearson(xs, ys)
	if err != nil {
		// A constant y gives slope 0 and undefined r; report r=0.
		r, err = 0, nil
	}
	return slope, intercept, r, nil
}

// Normalize maps xs linearly onto [0,1]. A constant series maps to all 0.5.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// ZScore standardises xs to zero mean and unit variance. A constant series
// maps to all zeros.
func ZScore(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m, sd := Mean(xs), StdDev(xs)
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// Histogram counts xs into nbins uniform bins over [lo, hi]. Values outside
// the range clamp to the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins < 1 {
		panic("stats: nbins must be >= 1")
	}
	counts := make([]int, nbins)
	if hi <= lo {
		counts[0] = len(xs)
		return counts
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// CrossCorrelate returns the normalised cross-correlation of a sliding
// template over a signal: out[i] is the Pearson correlation of
// signal[i:i+len(template)] with the template. Positions where the window
// is constant yield 0.
func CrossCorrelate(signal, template []float64) []float64 {
	n := len(signal) - len(template) + 1
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		r, err := Pearson(signal[i:i+len(template)], template)
		if err == nil {
			out[i] = r
		}
	}
	return out
}

// TwoMeans runs 1-D 2-means clustering and returns the low and high cluster
// centroids plus the midpoint threshold between them. It is the decoder
// primitive for binary channels whose two symbol states map to different
// observable levels. A constant input yields lo == hi == threshold.
func TwoMeans(xs []float64) (lo, hi, threshold float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	lo, hi = Min(xs), Max(xs)
	if lo == hi {
		return lo, hi, lo
	}
	for iter := 0; iter < 32; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		mid := (lo + hi) / 2
		for _, x := range xs {
			if x <= mid {
				sumLo += x
				nLo++
			} else {
				sumHi += x
				nHi++
			}
		}
		newLo, newHi := lo, hi
		if nLo > 0 {
			newLo = sumLo / float64(nLo)
		}
		if nHi > 0 {
			newHi = sumHi / float64(nHi)
		}
		if newLo == lo && newHi == hi {
			break
		}
		lo, hi = newLo, newHi
	}
	return lo, hi, (lo + hi) / 2
}
