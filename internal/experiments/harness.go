package experiments

import (
	"errors"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/telemetry"
	"github.com/thu-has/ragnar/internal/traffic"
	"github.com/thu-has/ragnar/internal/verbs"
)

// The noisy-neighbor harness: Section VII's counter-defense protocol,
// written once. Victims stream traffic, a HARMONIC detector trains on
// aggressor-idle windows and then scores the attack windows. tenants,
// exhaust and clos share the victim set; tenants, exhaust and nvmf step
// watches at the window boundaries they run to; defense and defgrid count
// flagged windows of a covert transmission with harmonicFlags.

// VictimBandwidth is a noisy-neighbor cell's bandwidth outcome: the
// aggressor's and every victim's rate during the attack phase, next to the
// victims' aggressor-idle baseline.
type VictimBandwidth struct {
	AggGbps    float64
	VictimGbps []float64 // per victim, during contention
	SoloGbps   float64   // mean per-victim rate with the aggressor idle
}

// MeanVictimGbps averages the per-victim contention bandwidth.
func (b VictimBandwidth) MeanVictimGbps() float64 { return stats.Mean(b.VictimGbps) }

// SoloPct is the mean victim bandwidth as a percentage of the solo baseline.
func (b VictimBandwidth) SoloPct() float64 {
	if b.SoloGbps <= 0 {
		return 0
	}
	return 100 * b.MeanVictimGbps() / b.SoloGbps
}

// victimSet is the victim population: one closed-loop WRITE generator per
// victim client, each on its own stride of a shared server MR.
type victimSet struct {
	size  int
	nics  []*nic.NIC
	gens  []*traffic.Generator
	marks []uint64
}

// dialVictims dials and warms clients first..first+n-1 in order. Call it
// before any other generator starts, the aggressor's included: Warm runs
// the engine to quiescence, which never arrives once a closed-loop
// generator is live.
func dialVictims(c *lab.Topology, mr *verbs.MR, first, n, size, depth int, stride uint64) (*victimSet, error) {
	v := &victimSet{size: size, marks: make([]uint64, n)}
	for i := 0; i < n; i++ {
		conn, err := c.Dial(first+i, depth*2)
		if err != nil {
			return nil, err
		}
		if err := c.Warm(conn, mr); err != nil {
			return nil, err
		}
		v.nics = append(v.nics, conn.Client.NIC())
		v.gens = append(v.gens, &traffic.Generator{
			QP: conn.QP, CQ: conn.CQ, Op: nic.OpWrite, MsgSize: size, Depth: depth,
			Next: traffic.FixedTarget(mr.Describe(uint64(i) * stride)),
		})
	}
	return v, nil
}

// start starts every victim's generator.
func (v *victimSet) start() error {
	for _, g := range v.gens {
		if err := g.Start(); err != nil {
			return err
		}
	}
	return nil
}

// mark records every victim's completion count for gbps.
func (v *victimSet) mark() {
	for i, g := range v.gens {
		v.marks[i] = g.Completed()
	}
}

// gbps reports each victim's payload rate since the mark, over d.
func (v *victimSet) gbps(d sim.Duration) []float64 {
	out := make([]float64, len(v.gens))
	for i, g := range v.gens {
		out[i] = gbpsOf(g.Completed()-v.marks[i], v.size, d)
	}
	return out
}

// err reports whether any victim operation completed in error.
func (v *victimSet) err() error {
	for _, g := range v.gens {
		if g.Errors() > 0 {
			return errors.New("victim completions errored")
		}
	}
	return nil
}

// watches puts one watch on every victim's NIC, starting now.
func (v *victimSet) watches(eng *sim.Engine) []*watch {
	ws := make([]*watch, len(v.nics))
	for i, n := range v.nics {
		ws[i] = newWatch(eng, n)
	}
	return ws
}

// watch is one HARMONIC detector on one NIC, stepped at the window
// boundaries a cell runs to. Until train it records the benign snapshot
// series; after, each step scores that window's delta.
type watch struct {
	eng      *sim.Engine
	nic      *nic.NIC
	series   []telemetry.Snapshot
	det      *defense.Harmonic
	prev     telemetry.Snapshot // last boundary
	atk0     telemetry.Snapshot // the boundary train ran at
	maxScore float64
	fired    bool
}

func newWatch(eng *sim.Engine, n *nic.NIC) *watch {
	return &watch{eng: eng, nic: n, series: []telemetry.Snapshot{telemetry.Snap(eng, n)}}
}

// step closes a window.
func (w *watch) step() {
	cur := telemetry.Snap(w.eng, w.nic)
	if w.det == nil {
		w.series = append(w.series, cur)
		return
	}
	s := w.det.Score(telemetry.Delta(w.prev, cur))
	w.prev = cur
	w.maxScore = max(w.maxScore, s)
	w.fired = w.fired || s > w.det.Threshold
}

// train fits the detector on the recorded windows; the attack phase
// begins now.
func (w *watch) train() {
	w.det = defense.TrainHarmonic(telemetry.WindowedDeltas(w.series))
	w.series = nil
	w.prev = telemetry.Snap(w.eng, w.nic)
	w.atk0 = w.prev
}

// sinceTrain is the counter delta from train to now.
func (w *watch) sinceTrain() telemetry.Snapshot {
	return telemetry.Delta(w.atk0, telemetry.Snap(w.eng, w.nic))
}

// runWindows advances c by n windows, stepping every watch at each boundary.
func runWindows(c *lab.Topology, n int, window sim.Duration, ws ...*watch) {
	for k := 0; k < n; k++ {
		c.RunFor(window)
		for _, w := range ws {
			w.step()
		}
	}
}

// trainAll trains every watch.
func trainAll(ws []*watch) {
	for _, w := range ws {
		w.train()
	}
}

// verdict is the victims' HARMONIC headline: the highest window score and
// how many detectors fired.
func verdict(ws []*watch) (maxScore float64, fired int) {
	for _, w := range ws {
		maxScore = max(maxScore, w.maxScore)
		if w.fired {
			fired++
		}
	}
	return maxScore, fired
}

// perTC sums a per-traffic-class counter over every class.
func perTC(counter func(tc int) uint64) uint64 {
	var n uint64
	for tc := 0; tc < fabric.NumTCs; tc++ {
		n += counter(tc)
	}
	return n
}

// harmonicWindows is the length in bits of a harmonicFlags transmission,
// and so its window count: the detector scores one window per symbol.
const harmonicWindows = 24

// harmonicFlags runs the counter-detector protocol against a ULI channel:
// train HARMONIC on the server NIC's windows of an idle (all-zero)
// transmission, then count the flagged windows of a live random one. Each
// transmission runs on a fresh channel from mk.
func harmonicFlags(mk func(nic.Profile, int64) (*covert.ULIChannel, error), p nic.Profile, seed int64) ([2]int, error) {
	run := func(bits bitstream.Bits) ([]telemetry.Snapshot, error) {
		ch, err := mk(p, seed)
		if err != nil {
			return nil, err
		}
		s := telemetry.NewSampler(ch.Cluster.Eng, ch.Cluster.Server.NIC(), ch.SymbolTime, harmonicWindows)
		if _, err := ch.Transmit(bits); err != nil {
			return nil, err
		}
		return s.Deltas(), nil
	}
	benign, err := run(make(bitstream.Bits, harmonicWindows))
	if err != nil {
		return [2]int{}, err
	}
	h := defense.TrainHarmonic(benign)
	deltas, err := run(bitstream.RandomBits(uint64(seed)|1, harmonicWindows))
	if err != nil {
		return [2]int{}, err
	}
	flagged := 0
	for _, d := range deltas {
		if h.Detect(d) {
			flagged++
		}
	}
	return [2]int{flagged, len(deltas)}, nil
}
