package uli

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/verbs"
)

// TimedSample is a ULI observation stamped with its completion time, for
// receivers that bin observations into symbol windows.
type TimedSample struct {
	At      sim.Time
	ULINano float64
	Offset  uint64
}

// Sampler measures ULI continuously, without a target sample count: it
// keeps Depth probes outstanding and records every steady-state completion
// until stopped. Covert-channel receivers run one of these while the engine
// advances through symbol periods.
type Sampler struct {
	QP      *verbs.QP
	CQ      *verbs.CQ
	Remote  verbs.RemoteBuf
	MsgSize int
	Depth   int
	// NextOffset optionally varies the probed offset.
	NextOffset func(i int) uint64
	// Rec, when set, receives one KindULISample event per recorded sample
	// (the metrics registry derives sample jitter from the event stream).
	Rec *trace.Recorder

	// Samples are the recorded observations, in completion-time order.
	Samples []TimedSample

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
}

// probe is one outstanding probe: its WRID and what was recorded at post.
type probe struct {
	wrid  uint64
	lenSQ int
	off   uint64
}

// Start fills the queue and begins recording. The sampler owns the CQ's
// Notify slot until Stop.
func (s *Sampler) Start() error {
	if s.running {
		return errors.New("uli: sampler already running")
	}
	if s.Depth < 1 {
		return errors.New("uli: sampler depth must be >= 1")
	}
	s.epoch = s.CQ.NextEpoch() << 32
	s.inFlight = make([]probe, 0, s.Depth+1)
	s.running = true
	s.recActor = s.Rec.RegisterActor("uli/sampler")
	s.CQ.Notify = func(c nic.Completion) {
		if !s.running || c.WRID&^uint64(0xffffffff) != s.epoch {
			return
		}
		if c.Status != nic.StatusOK {
			s.err = errors.New("uli: sampler probe failed: " + c.Status.String())
			s.running = false
			return
		}
		pr := s.complete(c.WRID)
		if pr.lenSQ >= s.Depth-1 {
			lat := c.DoneTime.Sub(c.PostTime)
			uliNano := lat.Nanoseconds() / float64(pr.lenSQ+1)
			s.Samples = append(s.Samples, TimedSample{
				At:      c.DoneTime,
				ULINano: uliNano,
				Offset:  pr.off,
			})
			s.Rec.Emit(trace.Event{At: int64(c.DoneTime), Kind: trace.KindULISample,
				Actor: s.recActor, Val: math.Float64bits(uliNano),
				Aux: pr.off, TC: -1})
		}
		if err := s.post(); err != nil && err != verbs.ErrSQFull {
			s.err = err
			s.running = false
		}
	}
	for i := 0; i < s.Depth; i++ {
		if err := s.post(); err != nil {
			if err == verbs.ErrSQFull {
				break
			}
			return err
		}
	}
	return nil
}

func (s *Sampler) post() error {
	var off uint64
	if s.NextOffset != nil {
		off = s.NextOffset(s.posted)
	}
	wrid := s.epoch | uint64(s.posted)
	s.inFlight = append(s.inFlight, probe{wrid: wrid, lenSQ: s.QP.Outstanding(), off: off})
	s.posted++
	err := s.QP.PostRead(wrid, nil, s.Remote.At(off), s.MsgSize)
	if err != nil {
		s.inFlight = s.inFlight[:len(s.inFlight)-1]
	}
	return err
}

// complete removes the probe with the given WRID from the in-flight list
// and returns it; an unknown WRID yields the zero probe.
func (s *Sampler) complete(wrid uint64) probe {
	for i, pr := range s.inFlight {
		if pr.wrid == wrid {
			s.inFlight = append(s.inFlight[:i], s.inFlight[i+1:]...)
			return pr
		}
	}
	return probe{}
}

// Stop ceases probing and releases the CQ hook. In-flight probes drain as
// the engine continues.
func (s *Sampler) Stop() {
	s.running = false
	s.CQ.Notify = nil
}

// Err returns the first probe failure, if any.
func (s *Sampler) Err() error { return s.err }

// AppendWindow appends the ULI values recorded in [from, to) to dst and
// returns the extended slice. Samples are in time order, so the window's
// start is found by binary search.
func (s *Sampler) AppendWindow(dst []float64, from, to sim.Time) []float64 {
	i, _ := slices.BinarySearchFunc(s.Samples, from, func(ts TimedSample, t sim.Time) int {
		return cmp.Compare(ts.At, t)
	})
	for _, ts := range s.Samples[i:] {
		if ts.At >= to {
			break
		}
		dst = append(dst, ts.ULINano)
	}
	return dst
}
