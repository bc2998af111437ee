package sim

import (
	"math/rand"
	"testing"
)

// priorityServer is the reference discipline the arbitrated server is
// checked against: a server whose queue is kept sorted by class on insert
// (stable within a class) and served from the front.
type priorityServer struct{ *Server }

func newPriorityServer(eng *Engine, name string, slots int) priorityServer {
	return priorityServer{NewServer(eng, name, slots)}
}

// Submit starts the request if a slot is free, else inserts it behind every
// queued request of the same or a lower class.
func (s priorityServer) Submit(service Duration, class int, done func()) {
	req := serverReq{service: service, class: class, done: done}
	if s.busy < s.slots {
		s.start(req)
		return
	}
	i := len(s.queue)
	for i > 0 && s.queue[i-1].class > class {
		i--
	}
	s.queue = append(s.queue, serverReq{})
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = req
}

// submitter is the Submit half of a server, common to both disciplines.
type submitter interface {
	Submit(service Duration, class int, done func())
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
		arb := run(func(e *Engine) submitter { return NewArbitratedServer(e, "arb", 1, strictPick{}) })
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
