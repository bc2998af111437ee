package sim

import "math/rand"

// Noise generates bounded timing jitter for model components. All model
// randomness flows through an Engine's rand source, so runs stay
// reproducible per seed.
type Noise struct {
	rng    *rand.Rand
	sigma  Duration // standard deviation of the Gaussian component
	spike  Duration // magnitude of rare positive spikes (queueing hiccups)
	spikeP float64  // probability of a spike per sample
}

// NewNoise builds a jitter source with Gaussian sigma plus occasional
// positive spikes of the given magnitude and probability. Real NIC latency
// distributions are right-skewed: a tight Gaussian core plus a sparse tail.
func NewNoise(rng *rand.Rand, sigma, spike Duration, spikeP float64) *Noise {
	return &Noise{rng: rng, sigma: sigma, spike: spike, spikeP: spikeP}
}

// Reseed replaces the noise stream with a private source. With jitter
// drawn from the shared engine stream, each component's samples depend on
// when every other component draws; a per-component stream derived from
// (seed, component index) does not. The Clos rig reseeds each NIC's TPU
// this way.
func (n *Noise) Reseed(seed int64) {
	if n != nil {
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// Sample draws one jitter value. The Gaussian component is truncated at
// ±3 sigma so a single sample can never go pathologically negative; callers
// add it to a base latency that exceeds 3 sigma.
func (n *Noise) Sample() Duration {
	if n == nil {
		return 0
	}
	g := n.rng.NormFloat64()
	if g > 3 {
		g = 3
	} else if g < -3 {
		g = -3
	}
	d := Duration(g * float64(n.sigma))
	if n.spikeP > 0 && n.rng.Float64() < n.spikeP {
		d += Duration(n.rng.Float64() * float64(n.spike))
	}
	return d
}

// Uniform returns a uniformly distributed duration in [0, max).
func Uniform(rng *rand.Rand, max Duration) Duration {
	if max <= 0 {
		return 0
	}
	return Duration(rng.Int63n(int64(max)))
}
