package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// priorityServer is the reference discipline the arbitrated server is
// checked against: a server whose queue is kept sorted by class on insert
// (stable within a class) and served from the front. It keeps the queue
// itself and hands a server one request at a time per free slot.
type priorityServer struct {
	s     *Server
	queue []classedReq
}

// classedReq is a queued request of the reference discipline with its class.
type classedReq struct {
	serverReq
	class int
}

func newPriorityServer(eng *Engine, name string, slots int) *priorityServer {
	return &priorityServer{s: NewServer(eng, name, slots)}
}

// Submit starts the request if a slot is free, else inserts it behind every
// queued request of the same or a lower class.
func (p *priorityServer) Submit(service Duration, class int, done func()) {
	req := classedReq{serverReq{service: service, done: done}, class}
	if p.s.busy < p.s.slots {
		p.start(req)
		return
	}
	i := len(p.queue)
	for i > 0 && p.queue[i-1].class > class {
		i--
	}
	p.queue = slices.Insert(p.queue, i, req)
}

// start serves req on the underlying server. When it completes, its done
// runs first and then the front of the queue takes the freed slot, the
// order Server keeps for its own queue.
func (p *priorityServer) start(req classedReq) {
	p.s.Submit(req.service, func() {
		if req.done != nil {
			req.done()
		}
		if len(p.queue) > 0 && p.s.busy < p.s.slots {
			next := p.queue[0]
			p.queue = p.queue[1:]
			p.start(next)
		}
	})
}

// submitter is the Submit half of a server, common to both disciplines.
type submitter interface {
	Submit(service Duration, class int, done func())
}

// arbitrated submits to an arbitrated server with the class as its only
// metadata.
type arbitrated struct{ *Server }

func (s arbitrated) Submit(service Duration, class int, done func()) {
	s.SubmitMeta(service, ReqMeta{Class: class}, done)
}

// strictPick mirrors nic.StrictArbiter: first index of the minimum class.
type strictPick struct{}

func (strictPick) Pick(q []ReqMeta) int {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].Class < q[best].Class {
			best = i
		}
	}
	return best
}

// The arbiter seam's core equivalence: an arbitrated server whose arbiter
// picks the first index of the minimum class over the FIFO arrival queue
// produces exactly the schedule of the priority server's sorted-insert +
// pop-front queue — for any submission pattern. Every legacy golden rests
// on this.
func TestArbitratedStrictMatchesPriorityServer(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))

		type sub struct {
			at      Duration
			service Duration
			class   int
		}
		subs := make([]sub, 200)
		for i := range subs {
			subs[i] = sub{
				at:      Duration(rng.Intn(5000)) * Nanosecond,
				service: Duration(1+rng.Intn(300)) * Nanosecond,
				class:   rng.Intn(3),
			}
		}

		run := func(mk func(*Engine) submitter) []Time {
			eng := NewEngine(7)
			s := mk(eng)
			done := make([]Time, len(subs))
			for i, sb := range subs {
				i, sb := i, sb
				eng.At(Time(0).Add(sb.at), func() {
					s.Submit(sb.service, sb.class, func() { done[i] = eng.Now() })
				})
			}
			eng.Run()
			return done
		}

		prio := run(func(e *Engine) submitter { return newPriorityServer(e, "prio", 1) })
		arb := run(func(e *Engine) submitter { return arbitrated{NewArbitratedServer(e, "arb", 1, strictPick{})} })
		for i := range prio {
			if prio[i] != arb[i] {
				t.Fatalf("trial %d: completion %d differs: priority=%v arbitrated=%v", trial, i, prio[i], arb[i])
			}
		}
	}
}

// SubmitMeta on an arbitrated server keeps queue and metadata index-aligned
// across out-of-order removal, and tenants actually steer the pick.
func TestArbitratedTenantPick(t *testing.T) {
	eng := NewEngine(1)
	// An arbiter that always prefers tenant 1's oldest request.
	pick := func(q []ReqMeta) int {
		for i := range q {
			if q[i].Tenant == 1 {
				return i
			}
		}
		return 0
	}
	s := NewArbitratedServer(eng, "arb", 1, pickFunc(pick))
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		tenant := i % 2
		s.SubmitMeta(10*Nanosecond, ReqMeta{Tenant: tenant, Bytes: 64}, func() {
			order = append(order, i)
		})
	}
	eng.Run()
	// Request 0 starts immediately (free slot); afterwards all tenant-1
	// requests (1, 3, 5) drain before tenant-0's (2, 4).
	want := []int{0, 1, 3, 5, 2, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

type pickFunc func(q []ReqMeta) int

func (f pickFunc) Pick(q []ReqMeta) int { return f(q) }
