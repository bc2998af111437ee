package sim

// Server models a service station with a fixed number of identical service
// slots and a FIFO request queue — the building block for DMA engines,
// processing units and translation pipelines. Requests carry a service time;
// when a slot frees up the next queued request begins service and its
// completion callback fires after the service time elapses.
//
// A request in service is a pooled job whose fire callback is bound once,
// when the job is first allocated, so the steady-state Submit path schedules
// its completion without allocating (benchmark-guarded).
type Server struct {
	eng    *Engine
	name   string
	slots  int
	busy   int
	queue  []serverReq
	served uint64
	// arb, when non-nil, picks the next queued request at every dequeue
	// instead of serving the queue in arrival order. metas runs parallel to
	// queue (same indices) and only exists for arbitrated servers.
	arb   Arbiter
	metas []ReqMeta
	// jobFree recycles in-service jobs; see job.
	jobFree []*job
}

// ReqMeta is the arbiter-visible description of one queued request. Class
// is its priority class (lower is more urgent); Tenant and Bytes feed
// schedulers such as DWRR that apportion service across traffic sources.
type ReqMeta struct {
	Class  int
	Tenant int
	Bytes  int
}

// Arbiter selects which queued request an arbitrated server serves next.
// Pick is called with the metadata of every waiting request (index-aligned
// with the internal queue) and returns the index to serve; it must not
// retain q. Out-of-range returns fall back to index 0.
type Arbiter interface {
	Pick(q []ReqMeta) int
}

type serverReq struct {
	service Duration
	done    func()
}

// job is one request in service. fire is bound to the job once, at
// allocation, and scheduled for every request the job carries.
type job struct {
	s    *Server
	done func()
	fire func()
}

// NewServer returns a server with the given number of parallel slots.
func NewServer(eng *Engine, name string, slots int) *Server {
	if slots < 1 {
		panic("sim: server needs at least one slot")
	}
	return &Server{eng: eng, name: name, slots: slots}
}

// NewArbitratedServer returns a server whose next request is chosen by arb
// at every dequeue. The queue itself stays FIFO-ordered by arrival, so an
// arbiter that always picks the first index of the minimum class reproduces
// the schedule of a queue kept sorted by class exactly.
func NewArbitratedServer(eng *Engine, name string, slots int, arb Arbiter) *Server {
	if arb == nil {
		panic("sim: arbitrated server needs an arbiter")
	}
	s := NewServer(eng, name, slots)
	s.arb = arb
	return s
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// QueueLen reports the number of requests waiting (not in service).
func (s *Server) QueueLen() int { return len(s.queue) }

// Served reports the number of completed requests.
func (s *Server) Served() uint64 { return s.served }

// Submit enqueues a request requiring the given service time on a server
// without an arbiter; done fires when service completes. An arbitrated
// server takes its requests through SubmitMeta.
func (s *Server) Submit(service Duration, done func()) {
	if s.arb != nil {
		panic("sim: Submit on an arbitrated server")
	}
	if service < 0 {
		panic("sim: negative service time")
	}
	req := serverReq{service: service, done: done}
	if s.busy < s.slots {
		s.start(req)
		return
	}
	s.queue = append(s.queue, req)
}

// SubmitMeta enqueues a request on an arbitrated server with the full
// arbiter-visible metadata. A request that finds a free slot starts
// immediately and is never shown to the arbiter.
func (s *Server) SubmitMeta(service Duration, meta ReqMeta, done func()) {
	if s.arb == nil {
		panic("sim: SubmitMeta on a non-arbitrated server")
	}
	if service < 0 {
		panic("sim: negative service time")
	}
	req := serverReq{service: service, done: done}
	if s.busy < s.slots {
		s.start(req)
		return
	}
	s.queue = append(s.queue, req)
	s.metas = append(s.metas, meta)
}

func (s *Server) start(req serverReq) {
	s.busy++
	var j *job
	if k := len(s.jobFree) - 1; k >= 0 {
		j = s.jobFree[k]
		s.jobFree = s.jobFree[:k]
	} else {
		j = &job{s: s}
		j.fire = j.complete
	}
	j.done = req.done
	s.eng.After(req.service, j.fire)
}

// complete ends a job's service: it frees the slot, recycles the job, runs
// the request's done callback and starts the next queued request. The job
// goes back on the free list before done runs, because done may submit to
// this server again.
func (j *job) complete() {
	s := j.s
	done := j.done
	j.done = nil
	s.jobFree = append(s.jobFree, j)
	s.busy--
	s.served++
	if done != nil {
		done()
	}
	if len(s.queue) > 0 && s.busy < s.slots {
		i := 0
		if s.arb != nil {
			i = s.arb.Pick(s.metas)
			if i < 0 || i >= len(s.queue) {
				i = 0
			}
			copy(s.metas[i:], s.metas[i+1:])
			s.metas = s.metas[:len(s.metas)-1]
		}
		next := s.queue[i]
		copy(s.queue[i:], s.queue[i+1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.start(next)
	}
}
