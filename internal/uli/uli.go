// Package uli implements the paper's Unit Latency Increase methodology
// (Section IV-C): Lat_total, measured from ibv_post_send to the polled
// completion, relates linearly to the send-queue backlog as
// Lat_total = k*(len_sq+1) + C with C ~ 0, so ULI = Lat_total/(len_sq+1)
// characterises per-request datapath contention. The package provides a
// closed-loop prober that sustains a target queue depth, per-probe ULI
// samples, and the linearity verification the paper reports (Pearson
// 0.9998).
package uli

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Sample is one probe measurement.
type Sample struct {
	At      sim.Time     // completion time
	Lat     sim.Duration // post-to-completion latency
	LenSQ   int          // WQEs ahead of this probe at post time
	ULINano float64      // Lat/(LenSQ+1) in nanoseconds
	Offset  uint64       // remote offset the probe touched
}

// Prober issues RDMA Reads in a closed loop, keeping Depth requests
// outstanding, and records a Sample per steady-state completion. It runs
// in one of two modes: Measure takes a fixed number of samples and
// returns, while Start records until Stop as the caller advances the
// engine (covert receivers bin those samples into symbol windows).
type Prober struct {
	QP      *verbs.QP
	CQ      *verbs.CQ
	Remote  verbs.RemoteBuf
	MsgSize int
	// Depth is the sustained queue depth (the paper's max send queue size
	// knob; e.g. 10/6/6 for the inter-MR channel, 8 for intra-MR).
	Depth int
	// NextOffset, when set, selects the remote offset of probe i (relative
	// to Remote.Addr); nil probes offset 0 repeatedly.
	NextOffset func(i int) uint64
	// NextRemote, when set, selects the full remote target of probe i
	// (rkey and address), overriding Remote/NextOffset — the inter-MR
	// channel alternates rkeys, not just offsets.
	NextRemote func(i int) verbs.RemoteBuf
	// Rec, when set, receives one KindULISample event per recorded sample
	// (the metrics registry derives sample jitter from the event stream).
	Rec *trace.Recorder

	// Samples are the recorded observations, in completion-time order.
	Samples []Sample

	running bool
	posted  int
	epoch   uint64
	// inFlight holds the outstanding probes in post order. Completions
	// come in that order on a lossless QP, so the lookup finds its probe
	// at the head; under loss a probe whose response was dropped completes
	// after its successors, and the scan finds it further on.
	inFlight []probe
	err      error
	recActor uint16
	// Measure's stop rules: the completions still to skip as pipeline
	// fill, the sample count at which to halt eng, and the drain after it.
	// Start leaves them zero and never halts the engine.
	eng      *sim.Engine
	skip     int
	limit    int
	draining bool
}

// probe is one outstanding probe: its WRID and what was recorded at post.
type probe struct {
	wrid  uint64
	lenSQ int
	off   uint64
}

// Start fills the queue and begins recording into Samples. The prober owns
// the CQ's Notify slot until Stop.
func (p *Prober) Start() error { return p.start(nil, 0, 0) }

func (p *Prober) start(eng *sim.Engine, skip, limit int) error {
	if p.running {
		return errors.New("uli: prober already running")
	}
	if p.Depth < 1 {
		return errors.New("uli: depth must be >= 1")
	}
	p.eng, p.skip, p.limit = eng, skip, limit
	p.epoch = p.CQ.NextEpoch() << 32
	p.posted, p.err = 0, nil
	p.inFlight = make([]probe, 0, p.Depth+1)
	p.running = true
	p.recActor = p.Rec.RegisterActor("uli/sampler")
	p.CQ.Notify = p.onCQE
	for i := 0; i < p.Depth; i++ {
		if err := p.post(); err != nil {
			if err == verbs.ErrSQFull {
				break
			}
			p.running = false
			return err
		}
	}
	return nil
}

// onCQE is the prober's completion handler in both modes.
func (p *Prober) onCQE(c nic.Completion) {
	if p.draining {
		if p.QP.Outstanding() == 0 {
			p.eng.Halt()
		}
		return
	}
	if !p.running || c.WRID&^uint64(0xffffffff) != p.epoch {
		return // stopped, or a stale probe from an earlier run
	}
	if c.Status != nic.StatusOK {
		p.halt(errors.New("uli: probe failed: " + c.Status.String()))
		return
	}
	pr := p.complete(c.WRID)
	switch {
	case p.skip > 0:
		// Measure's first Depth completions carry pipeline-fill latency.
		p.skip--
	case pr.lenSQ >= p.Depth-1:
		// Ramp-up probes, posted behind fewer than Depth-1 others, carry
		// startup latency, not steady-state contention; the rest count.
		lat := c.DoneTime.Sub(c.PostTime)
		uliNano := lat.Nanoseconds() / float64(pr.lenSQ+1)
		p.Samples = append(p.Samples, Sample{At: c.DoneTime, Lat: lat,
			LenSQ: pr.lenSQ, ULINano: uliNano, Offset: pr.off})
		p.Rec.Emit(trace.Event{At: int64(c.DoneTime), Kind: trace.KindULISample,
			Actor: p.recActor, Val: math.Float64bits(uliNano), Aux: pr.off, TC: -1})
	}
	if p.limit > 0 && len(p.Samples) >= p.limit {
		p.halt(nil)
		return
	}
	if err := p.post(); err != nil && err != verbs.ErrSQFull {
		p.halt(err)
	}
}

// halt ends probing with err (nil at Measure's sample limit) and halts
// Measure's engine.
func (p *Prober) halt(err error) {
	p.running, p.err = false, err
	if p.eng != nil {
		p.eng.Halt()
	}
}

func (p *Prober) post() error {
	target := p.Remote
	var off uint64
	switch {
	case p.NextRemote != nil:
		target = p.NextRemote(p.posted)
		off = target.Addr - p.Remote.Addr
	case p.NextOffset != nil:
		off = p.NextOffset(p.posted)
		target = p.Remote.At(off)
	}
	wrid := p.epoch | uint64(p.posted)
	p.inFlight = append(p.inFlight, probe{wrid: wrid, lenSQ: p.QP.Outstanding(), off: off})
	p.posted++
	err := p.QP.PostRead(wrid, nil, target, p.MsgSize)
	if err != nil {
		p.inFlight = p.inFlight[:len(p.inFlight)-1]
	}
	return err
}

// complete removes the probe with the given WRID from the in-flight list
// and returns it; an unknown WRID yields the zero probe.
func (p *Prober) complete(wrid uint64) probe {
	for i, pr := range p.inFlight {
		if pr.wrid == wrid {
			p.inFlight = append(p.inFlight[:i], p.inFlight[i+1:]...)
			return pr
		}
	}
	return probe{}
}

// Stop ceases probing and releases the CQ hook. In-flight probes drain as
// the engine continues.
func (p *Prober) Stop() {
	p.running = false
	p.CQ.Notify = nil
}

// Err returns the first probe failure of a Start run, if any.
func (p *Prober) Err() error { return p.err }

// Measure runs the prober until it holds n samples and returns them. It
// drives the engine via completion notifications: concurrent traffic from
// other actors keeps flowing. The first Depth completions are skipped as
// pipeline fill; the caller's engine is run until the n-th sample, and
// in-flight probes are drained before returning so back-to-back
// measurements on one connection do not contaminate each other. The CQ's
// Notify is restored on return.
func (p *Prober) Measure(eng *sim.Engine, n int) ([]Sample, error) {
	if n < 1 {
		return nil, errors.New("uli: need at least one probe")
	}
	prevNotify := p.CQ.Notify
	defer func() { p.CQ.Notify = prevNotify }()
	p.Samples = make([]Sample, 0, n)
	if err := p.start(eng, p.Depth, n); err != nil {
		return nil, err
	}
	eng.Run()
	p.running = false
	if p.err != nil {
		return nil, p.err
	}
	if len(p.Samples) < n {
		return p.Samples, errors.New("uli: engine drained before measurement completed")
	}
	// Drain remaining in-flight probes so the next measurement on this
	// connection starts from an idle queue: onCQE halts the engine at the
	// completion that leaves the QP idle.
	if p.QP.Outstanding() > 0 {
		p.draining = true
		eng.Run()
		p.draining = false
	}
	return p.Samples, nil
}

// AppendWindow appends the ULI values recorded in [from, to) to dst and
// returns the extended slice. Samples are in time order, so the window's
// start is found by binary search.
func (p *Prober) AppendWindow(dst []float64, from, to sim.Time) []float64 {
	i, _ := slices.BinarySearchFunc(p.Samples, from, func(s Sample, t sim.Time) int {
		return cmp.Compare(s.At, t)
	})
	for _, s := range p.Samples[i:] {
		if s.At >= to {
			break
		}
		dst = append(dst, s.ULINano)
	}
	return dst
}

// ULIs extracts the ULI values (ns) from samples.
func ULIs(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ULINano
	}
	return out
}

// Trace summarises a batch of ULI samples the way the paper's figures plot
// them: mean with 10th/90th percentiles.
type Trace struct {
	Mean float64
	P10  float64
	P90  float64
	N    int
}

// Summarize reduces samples to a Trace.
func Summarize(samples []Sample) Trace {
	u := ULIs(samples)
	ps := stats.Percentiles(u, 10, 90)
	return Trace{Mean: stats.Mean(u), P10: ps[0], P90: ps[1], N: len(u)}
}

// LinearityReport verifies the Lat = k*(len_sq+1) + C model across queue
// depths.
type LinearityReport struct {
	K       float64 // slope: latency per queued request, ns
	C       float64 // intercept, ns
	Pearson float64
	Depths  []int
	MeanLat []float64 // ns, aligned with Depths
}

// VerifyLinearity measures mean latency at each depth and fits the line.
// The paper reports Pearson = 0.9998 with negligible C; the simulated
// pipeline reproduces that because queueing dominates the constant terms at
// depth >= a few.
func VerifyLinearity(eng *sim.Engine, mk func(depth int) *Prober, depths []int, probesPer int) (LinearityReport, error) {
	var rep LinearityReport
	var xs, ys []float64
	for _, d := range depths {
		p := mk(d)
		// Scale the sample budget so deep queues reach steady state.
		samples, err := p.Measure(eng, probesPer+2*d)
		if err != nil {
			return rep, err
		}
		var lat []float64
		for _, s := range samples {
			lat = append(lat, s.Lat.Nanoseconds())
		}
		m := stats.Mean(lat)
		rep.Depths = append(rep.Depths, d)
		rep.MeanLat = append(rep.MeanLat, m)
		xs = append(xs, float64(d))
		ys = append(ys, m)
	}
	k, c, r, err := stats.LinearFit(xs, ys)
	if err != nil {
		return rep, err
	}
	rep.K, rep.C, rep.Pearson = k, c, r
	return rep, nil
}
