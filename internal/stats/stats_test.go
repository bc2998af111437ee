package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if sd := StdDev(xs); !almost(sd, 2, 1e-12) {
		t.Fatalf("stddev = %v", sd)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("variance of singleton should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Fatalf("min/max/sum = %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be infinities")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 50); !almost(p, 5.5, 1e-12) {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 10); !almost(p, 1.9, 1e-12) {
		t.Fatalf("p10 = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentilesBatch(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	ps := Percentiles(xs, 0, 50, 100)
	if ps[0] != 1 || ps[1] != 3 || ps[2] != 5 {
		t.Fatalf("batch percentiles = %v", ps)
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Percentiles mutated input")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Fatalf("r = %v err = %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1, 1e-12) {
		t.Fatalf("negative r = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("constant series should error")
	}
}

func TestLinearFit(t *testing.T) {
	// y = 3x + 2 exactly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 2
	}
	slope, intercept, r, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 3, 1e-12) || !almost(intercept, 2, 1e-12) || !almost(r, 1, 1e-12) {
		t.Fatalf("fit = %v %v %v", slope, intercept, r)
	}
}

// Property: the ULI linearity assumption — fitting noiseless k*(x)+c data
// always recovers k and c to within floating error.
func TestLinearFitProperty(t *testing.T) {
	f := func(k8, c8 int8, n uint8) bool {
		k, c := float64(k8), float64(c8)
		m := int(n%20) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			xs[i] = float64(i)
			ys[i] = k*float64(i) + c
		}
		slope, intercept, _, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return almost(slope, k, 1e-9) && almost(intercept, c, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{10, 20, 30})
	if out[0] != 0 || out[2] != 1 || !almost(out[1], 0.5, 1e-12) {
		t.Fatalf("normalize = %v", out)
	}
	flat := Normalize([]float64{4, 4})
	if flat[0] != 0.5 || flat[1] != 0.5 {
		t.Fatalf("flat normalize = %v", flat)
	}
}

func TestZScore(t *testing.T) {
	out := ZScore([]float64{1, 2, 3, 4, 5})
	if !almost(Mean(out), 0, 1e-12) || !almost(StdDev(out), 1, 1e-12) {
		t.Fatalf("zscore mean/sd = %v %v", Mean(out), StdDev(out))
	}
	flat := ZScore([]float64{7, 7, 7})
	for _, v := range flat {
		if v != 0 {
			t.Fatalf("flat zscore = %v", flat)
		}
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.5, 0.9, -5, 99}
	h := Histogram(xs, 0, 1, 2)
	// 0.5 falls on the bin boundary and belongs to the upper bin.
	if h[0] != 3 || h[1] != 3 {
		t.Fatalf("histogram = %v", h)
	}
	if n := Sum([]float64{float64(h[0]), float64(h[1])}); n != float64(len(xs)) {
		t.Fatalf("histogram loses samples: %v", h)
	}
}

func TestCrossCorrelate(t *testing.T) {
	template := []float64{1, 2, 3}
	signal := []float64{0, 0, 1, 2, 3, 0, 0}
	xc := CrossCorrelate(signal, template)
	// Pearson is shift/scale invariant, so the exact-match window must score
	// a perfect 1.0 (other monotone windows may tie).
	if !almost(xc[2], 1, 1e-12) {
		t.Fatalf("exact-match correlation = %v (xc=%v)", xc[2], xc)
	}
	if len(xc) != len(signal)-len(template)+1 {
		t.Fatalf("xc length = %d", len(xc))
	}
	if CrossCorrelate([]float64{1}, template) != nil {
		t.Fatal("short signal should give nil")
	}
}

// Property: Normalize output is always within [0,1].
func TestNormalizeBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1000
		}
		for _, v := range Normalize(xs) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is symmetric and within [-1, 1].
func TestPearsonRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return true // constant draw; skip
		}
		return almost(r1, r2, 1e-12) && r1 >= -1-1e-12 && r1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTwoMeans(t *testing.T) {
	xs := []float64{1, 1.2, 0.9, 5, 5.1, 4.8, 1.1, 5.2}
	lo, hi, th := TwoMeans(xs)
	if !almost(lo, 1.05, 0.01) || !almost(hi, 5.025, 0.01) {
		t.Fatalf("centroids = %v %v", lo, hi)
	}
	if th <= lo || th >= hi {
		t.Fatalf("threshold %v outside (%v, %v)", th, lo, hi)
	}
	l, h, thr := TwoMeans([]float64{3, 3, 3})
	if l != 3 || h != 3 || thr != 3 {
		t.Fatalf("constant input: %v %v %v", l, h, thr)
	}
	if _, _, z := TwoMeans(nil); z != 0 {
		t.Fatal("empty input should yield zeros")
	}
}
