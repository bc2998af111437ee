package uli

import (
	"errors"
	"math"

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

	Samples []TimedSample

	running  bool
	posted   int
	epoch    uint64
	lenAt    map[uint64]int
	offAt    map[uint64]uint64
	err      error
	recActor uint16
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
	s.lenAt = make(map[uint64]int, s.Depth+1)
	s.offAt = make(map[uint64]uint64, s.Depth+1)
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
		lsq := s.lenAt[c.WRID]
		delete(s.lenAt, c.WRID)
		if lsq >= s.Depth-1 {
			lat := c.DoneTime.Sub(c.PostTime)
			uliNano := lat.Nanoseconds() / float64(lsq+1)
			s.Samples = append(s.Samples, TimedSample{
				At:      c.DoneTime,
				ULINano: uliNano,
				Offset:  s.offAt[c.WRID],
			})
			s.Rec.Emit(trace.Event{At: int64(c.DoneTime), Kind: trace.KindULISample,
				Actor: s.recActor, Val: math.Float64bits(uliNano),
				Aux: s.offAt[c.WRID], TC: -1})
		}
		delete(s.offAt, c.WRID)
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
	s.lenAt[wrid] = s.QP.Outstanding()
	s.offAt[wrid] = off
	s.posted++
	return s.QP.PostRead(wrid, nil, s.Remote.At(off), s.MsgSize)
}

// Stop ceases probing and releases the CQ hook. In-flight probes drain as
// the engine continues.
func (s *Sampler) Stop() {
	s.running = false
	s.CQ.Notify = nil
}

// Err returns the first probe failure, if any.
func (s *Sampler) Err() error { return s.err }

// Window returns the ULI values recorded in [from, to).
func (s *Sampler) Window(from, to sim.Time) []float64 {
	var out []float64
	for _, ts := range s.Samples {
		if ts.At >= from && ts.At < to {
			out = append(out, ts.ULINano)
		}
	}
	return out
}
