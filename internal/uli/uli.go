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
	"errors"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Sample is one probe measurement.
type Sample struct {
	Lat     sim.Duration // post-to-completion latency
	LenSQ   int          // WQEs ahead of this probe at post time
	ULINano float64      // Lat/(LenSQ+1) in nanoseconds
	Offset  uint64       // remote offset the probe touched
}

// Prober issues RDMA Reads in a closed loop, keeping Depth requests
// outstanding, and records a Sample per completion.
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
}

// Measure runs n probes and returns their samples. It drives the engine via
// completion notifications: concurrent traffic from other actors keeps
// flowing. The caller's engine is run until the measurement completes, and
// in-flight probes are drained before returning so back-to-back
// measurements on one connection do not contaminate each other.
func (p *Prober) Measure(eng *sim.Engine, n int) ([]Sample, error) {
	if p.Depth < 1 {
		return nil, errors.New("uli: depth must be >= 1")
	}
	if n < 1 {
		return nil, errors.New("uli: need at least one probe")
	}
	epoch := p.CQ.NextEpoch() << 32
	samples := make([]Sample, 0, n)
	posted := 0
	skipped := 0
	lenAt := make(map[uint64]int, p.Depth+1)
	offAt := make(map[uint64]uint64, p.Depth+1)
	done := false

	post := func() error {
		target := p.Remote
		var off uint64
		switch {
		case p.NextRemote != nil:
			target = p.NextRemote(posted)
			off = target.Addr - p.Remote.Addr
		case p.NextOffset != nil:
			off = p.NextOffset(posted)
			target = p.Remote.At(off)
		}
		wrid := epoch | uint64(posted)
		lenAt[wrid] = p.QP.Outstanding()
		offAt[wrid] = off
		posted++
		return p.QP.PostRead(wrid, nil, target, p.MsgSize)
	}

	prevNotify := p.CQ.Notify
	defer func() { p.CQ.Notify = prevNotify }()
	var measureErr error
	p.CQ.Notify = func(c nic.Completion) {
		if done || c.WRID&^uint64(0xffffffff) != epoch {
			return // stale probe from an earlier measurement
		}
		if c.Status != nic.StatusOK {
			measureErr = errors.New("uli: probe failed: " + c.Status.String())
			done = true
			eng.Halt()
			return
		}
		lat := c.DoneTime.Sub(c.PostTime)
		lsq := lenAt[c.WRID]
		delete(lenAt, c.WRID)
		switch {
		case lsq < p.Depth-1 || skipped < p.Depth:
			// Ramp-up probes and the first pipeline-fill completions carry
			// startup latency, not steady-state contention.
			skipped++
		default:
			samples = append(samples, Sample{
				Lat:     lat,
				LenSQ:   lsq,
				ULINano: lat.Nanoseconds() / float64(lsq+1),
				Offset:  offAt[c.WRID],
			})
		}
		delete(offAt, c.WRID)
		if len(samples) >= n {
			done = true
			eng.Halt()
			return
		}
		if err := post(); err != nil && err != verbs.ErrSQFull {
			measureErr = err
			done = true
			eng.Halt()
		}
	}

	for i := 0; i < p.Depth; i++ {
		if err := post(); err != nil {
			if err == verbs.ErrSQFull {
				break
			}
			return nil, err
		}
	}
	eng.Run()
	if measureErr != nil {
		return nil, measureErr
	}
	if len(samples) < n {
		return samples, errors.New("uli: engine drained before measurement completed")
	}
	// Drain remaining in-flight probes so the next measurement on this
	// connection starts from an idle queue.
	if p.QP.Outstanding() > 0 {
		p.CQ.Notify = func(nic.Completion) {
			if p.QP.Outstanding() == 0 {
				eng.Halt()
			}
		}
		eng.Run()
	}
	return samples, nil
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
