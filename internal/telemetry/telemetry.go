// Package telemetry provides the ethtool/HARMONIC-style counter view of a
// simulated RNIC: point-in-time snapshots of Grain-I (volume), Grain-II
// (per-opcode) and Grain-III (per-QP/MR) counters, window deltas, and a
// periodic sampler that records a series while the simulation runs. The
// defense package builds its detectors on these; command-line tools print
// them.
package telemetry

import (
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

// Snapshot is one reading of the counters a defender can see: the NIC's
// counter set (nic.Counters, the only place it is declared) stamped with
// the simulated time of the reading.
type Snapshot struct {
	At sim.Time
	nic.Counters
}

// Snap reads the current counter state of a NIC.
func Snap(eng *sim.Engine, n *nic.NIC) Snapshot {
	return Snapshot{At: eng.Now(), Counters: n.Counters().Clone()}
}

// Delta returns the per-window counter increments between two snapshots.
func Delta(prev, cur Snapshot) Snapshot {
	return Snapshot{At: cur.At, Counters: cur.Sub(&prev.Counters)}
}

// WindowedDeltas converts a snapshot series into per-window deltas.
func WindowedDeltas(series []Snapshot) []Snapshot {
	var out []Snapshot
	for i := 1; i < len(series); i++ {
		out = append(out, Delta(series[i-1], series[i]))
	}
	return out
}

// Sampler schedules periodic snapshots of a NIC. Snapshots fire as
// simulation events while other actors run.
type Sampler struct {
	Series []Snapshot
}

// NewSampler arms n windows of the given width starting now. The returned
// sampler's Series fills as the engine advances past each boundary.
func NewSampler(eng *sim.Engine, n *nic.NIC, window sim.Duration, windows int) *Sampler {
	s := &Sampler{}
	s.Series = append(s.Series, Snap(eng, n))
	for w := 1; w <= windows; w++ {
		eng.At(eng.Now().Add(window*sim.Duration(w)), func() {
			s.Series = append(s.Series, Snap(eng, n))
		})
	}
	return s
}

// Deltas returns the currently recorded window deltas.
func (s *Sampler) Deltas() []Snapshot { return WindowedDeltas(s.Series) }

// RateGbps converts a delta's RxBytes to Gbps given the window width.
func RateGbps(d Snapshot, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(d.RxBytes) * 8 / window.Seconds() / 1e9
}
