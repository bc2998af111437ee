// Package traffic provides closed-loop RDMA traffic generators: the building
// block for covert-channel senders, side-channel victims and background
// load. A Generator keeps a fixed number of operations outstanding on its
// queue pair and re-posts on every completion, with a pluggable target
// selector so callers encode information in what is accessed (MR identity,
// address offset) rather than how much.
package traffic

import (
	"errors"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Generator issues a continuous stream of one-sided operations.
type Generator struct {
	QP      *verbs.QP
	CQ      *verbs.CQ
	Op      nic.Opcode // OpRead or OpWrite
	MsgSize int
	Depth   int
	// Next selects the target of operation i. Required.
	Next func(i int) verbs.RemoteBuf
	// Data supplies the payload for writes; nil writes zeros.
	Data []byte

	running   bool
	posted    int
	completed uint64
	errs      uint64
}

// Start fills the queue and installs the completion hook. The generator
// owns its CQ's Notify slot while running.
func (g *Generator) Start() error {
	if g.running {
		return errors.New("traffic: already running")
	}
	if g.Next == nil {
		return errors.New("traffic: Next selector required")
	}
	if g.Depth < 1 {
		g.Depth = 1
	}
	if g.Op != nic.OpRead && g.Op != nic.OpWrite {
		return errors.New("traffic: generator supports READ and WRITE")
	}
	g.running = true
	g.CQ.Notify = func(c nic.Completion) {
		if c.Status != nic.StatusOK {
			g.errs++
		}
		g.completed++
		if g.running {
			g.post()
		}
	}
	for i := 0; i < g.Depth; i++ {
		if err := g.post(); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) post() error {
	target := g.Next(g.posted)
	wrid := uint64(g.posted)
	g.posted++
	var err error
	if g.Op == nic.OpRead {
		err = g.QP.PostRead(wrid, nil, target, g.MsgSize)
	} else {
		err = g.QP.PostWrite(wrid, g.Data, target, g.MsgSize)
	}
	if err == verbs.ErrSQFull {
		return nil // back off; the next completion re-posts
	}
	return err
}

// Stop ceases posting; in-flight operations drain naturally.
func (g *Generator) Stop() {
	g.running = false
	g.CQ.Notify = nil
}

// Completed returns the number of finished operations.
func (g *Generator) Completed() uint64 { return g.completed }

// Errors returns the number of failed operations.
func (g *Generator) Errors() uint64 { return g.errs }

// FixedTarget returns a selector that always hits one remote buffer.
func FixedTarget(r verbs.RemoteBuf) func(int) verbs.RemoteBuf {
	return func(int) verbs.RemoteBuf { return r }
}

// Alternate returns a selector that cycles through the given targets.
func Alternate(targets ...verbs.RemoteBuf) func(int) verbs.RemoteBuf {
	if len(targets) == 0 {
		panic("traffic: Alternate needs at least one target")
	}
	return func(i int) verbs.RemoteBuf { return targets[i%len(targets)] }
}
