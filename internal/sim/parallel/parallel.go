// Package parallel runs a partitioned topology as a conservative parallel
// discrete-event simulation: one sim.Engine per domain, cross-domain traffic
// carried by timestamped channels, and link propagation delay as the
// lookahead bound.
//
// The synchronization scheme is a synchronous-window barrier (an LBTS /
// null-message-free variant of conservative PDES). Each round the
// coordinator computes Tmin, the minimum live event time across all
// domains, and lets every domain execute events with timestamps strictly
// inside the window [Tmin, Tmin+L), where L is the minimum lookahead over
// all inter-domain channels. Window execution is one goroutine per domain;
// a WaitGroup barrier follows; then the coordinator alone drains every
// channel, scheduling the staged transfers on their destination engines.
//
// Why this is safe: a transfer staged at sender time t carries an arrival
// timestamp t+prop, where prop >= L is the channel's lookahead (the trunk
// link's propagation delay). Since t >= Tmin, the arrival is at
// t+prop >= Tmin+L — at or past the window end — so no domain can receive
// work in its own past. That is the whole correctness argument, and it is
// why the lookahead bound must be a real lower bound on cross-domain
// latency.
//
// Determinism: channels are drained in creation order by the single
// coordinator thread, in-channel order is FIFO, and arrival timestamps per
// channel are nondecreasing, so destination-engine sequence numbers are
// assigned identically on every run regardless of how the window goroutines
// interleave. The one divergence from a serial run is tie-breaking: a
// cross-domain arrival and a local event landing on the same picosecond may
// fire in a different relative order than the serial engine's global
// schedule-order tiebreak. scripts/equivalence.sh pins empirically that the
// suite's outputs are byte-identical anyway. See DESIGN.md §12 for the
// model, its non-goals, and the single-RNG-consumer constraint.
package parallel

import (
	"fmt"
	"sync"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/sim"
)

// Domain is one sequential partition of the topology: a sim.Engine plus its
// position in the group. All model objects of the partition (switches,
// NICs, links) are built against d.Eng and are only ever touched from that
// engine's callbacks.
type Domain struct {
	Eng *sim.Engine
	idx int
	g   *Group
	run func() // runWindow bound once: `go d.run()` spawns without allocating
}

// runWindow is the per-window goroutine body. It is a bound method (not a
// closure) so that spawning a window allocates nothing: the limit lives on
// the group, published before the goroutine starts and read-only until the
// barrier.
func (d *Domain) runWindow() {
	d.Eng.RunBefore(d.g.limit)
	d.g.wg.Done()
}

type xferKind uint8

const (
	xPacket xferKind = iota
	xPause
	xResume
)

// xfer is one staged cross-domain transfer: a packet for the destination
// sink, or a PFC pause/resume against a destination-owned link (the trunk
// flow-control relay).
type xfer struct {
	at   sim.Time
	kind xferKind
	tc   int32
	pkt  fabric.Packet
	link *fabric.Link
}

// Chan is a directed inter-domain channel with a fixed lookahead. The
// source domain's goroutine stages transfers during window execution; the
// coordinator drains them at the barrier onto the destination engine. The
// two phases never overlap, so Chan needs no lock.
type Chan struct {
	src, dst  *Domain
	lookahead sim.Duration
	sink      func(fabric.Packet)

	// staged is written by the source domain during a window, swapped out
	// by the coordinator at the barrier.
	staged []xfer

	// inbox is the FIFO of drained transfers awaiting their delivery events
	// on the destination engine. deliverFn (bound once) pops the head; per
	// transfer the hot path allocates nothing beyond amortized ring growth.
	inbox   []xfer
	head    int
	deliver func()
}

// Send stages a packet for delivery to the destination sink at absolute
// time at. It must be called from the source domain (inside one of its
// event callbacks) and at must be at least the channel's lookahead past the
// source clock; Deliver panics on a causality violation at drain time.
func (c *Chan) Send(at sim.Time, p fabric.Packet) {
	c.staged = append(c.staged, xfer{at: at, kind: xPacket, pkt: p})
}

// SendPause stages a PFC pause (pause=true) or resume against a
// destination-owned link, applied at absolute time at. This is the
// cross-domain half of the trunk pause relay: the serial path applies the
// same state change via a delayed event on the shared engine.
func (c *Chan) SendPause(at sim.Time, l *fabric.Link, tc int, pause bool) {
	k := xResume
	if pause {
		k = xPause
	}
	c.staged = append(c.staged, xfer{at: at, kind: k, tc: int32(tc), link: l})
}

// deliverHead fires on the destination engine and consumes the oldest
// inbox entry. Arrival timestamps per channel are nondecreasing, so FIFO
// order matches event order.
func (c *Chan) deliverHead() {
	x := c.inbox[c.head]
	c.inbox[c.head] = xfer{} // drop payload references
	c.head++
	if c.head == len(c.inbox) {
		c.inbox = c.inbox[:0]
		c.head = 0
	} else if c.head >= 64 && c.head*2 >= len(c.inbox) {
		n := copy(c.inbox, c.inbox[c.head:])
		c.inbox = c.inbox[:n]
		c.head = 0
	}
	switch x.kind {
	case xPacket:
		c.sink(x.pkt)
	case xPause:
		x.link.PauseTC(int(x.tc))
	case xResume:
		x.link.ResumeTC(int(x.tc))
	}
}

// drain moves staged transfers onto the destination engine. Coordinator
// only, between windows.
func (c *Chan) drain() {
	for i := range c.staged {
		x := c.staged[i]
		if x.at < c.dst.Eng.Now() {
			panic(fmt.Sprintf("parallel: transfer at %v arrives before destination clock %v (lookahead %v too large?)",
				x.at, c.dst.Eng.Now(), c.lookahead))
		}
		c.inbox = append(c.inbox, x)
		c.dst.Eng.At(x.at, c.deliver)
		c.staged[i] = xfer{}
	}
	c.staged = c.staged[:0]
}

// Group is a set of domains plus the channels coupling them. The zero
// value is unusable; use NewGroup.
type Group struct {
	domains []*Domain
	chans   []*Chan
	minLook sim.Duration

	// Window-execution state, reused across windows so the hot path stays
	// allocation-free (bench-guard gates BenchmarkEngineParallelXfer at
	// 0 allocs/op).
	wg    sync.WaitGroup
	limit sim.Time
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{} }

// AddDomain wraps eng as a new domain. Engines must not be shared between
// domains.
func (g *Group) AddDomain(eng *sim.Engine) *Domain {
	d := &Domain{Eng: eng, idx: len(g.domains), g: g}
	d.run = d.runWindow
	g.domains = append(g.domains, d)
	return d
}

// Domains returns the group's domains in creation order.
func (g *Group) Domains() []*Domain { return g.domains }

// Connect creates a directed channel from src to dst. lookahead must be
// positive — it is the guarantee that nothing staged on this channel
// arrives sooner than lookahead past the sender's clock, and the group's
// window length is the minimum lookahead over all channels. sink receives
// delivered packets on the destination engine.
func (g *Group) Connect(src, dst *Domain, lookahead sim.Duration, sink func(fabric.Packet)) *Chan {
	if lookahead <= 0 {
		panic("parallel: channel lookahead must be positive")
	}
	if src == dst {
		panic("parallel: channel endpoints must be distinct domains")
	}
	c := &Chan{src: src, dst: dst, lookahead: lookahead, sink: sink}
	c.deliver = c.deliverHead
	g.chans = append(g.chans, c)
	if g.minLook == 0 || lookahead < g.minLook {
		g.minLook = lookahead
	}
	return c
}

// minNext reports the earliest live event time across all domains.
func (g *Group) minNext() (sim.Time, bool) {
	var tmin sim.Time
	any := false
	for _, d := range g.domains {
		if when, ok := d.Eng.NextEventTime(); ok && (!any || when < tmin) {
			tmin, any = when, true
		}
	}
	return tmin, any
}

// window executes one synchronous window: every domain with work before
// limit runs concurrently, then the coordinator drains all channels in
// creation order. The WaitGroup barrier orders the domain goroutines'
// writes before the coordinator's reads, and the next window's goroutine
// launches order the coordinator's writes before the domains' reads.
func (g *Group) window(limit sim.Time) {
	g.limit = limit
	for _, d := range g.domains {
		if when, ok := d.Eng.NextEventTime(); ok && when < limit {
			g.wg.Add(1)
			go d.run()
		}
	}
	g.wg.Wait()
	for _, c := range g.chans {
		c.drain()
	}
}

// Run executes windows until every domain's queue is drained of live
// events and no transfers are staged, then advances every domain clock to
// the group-wide last-event time. The final advance is what lets callers
// interleave Run with fresh work (warm-up, then posting): a serial engine
// has one clock, so new work posted after Run starts at the time of the
// last event fired anywhere. Without the advance, a domain that went idle
// early would keep its lagging clock, post the new work in the other
// domains' past, and diverge from the serial schedule — or trip the
// channels' causality check outright.
//
// A single-domain group delegates to the engine's own Run for exact serial
// semantics (including trace markers); a group with no channels runs each
// (necessarily independent) domain to completion in order.
func (g *Group) Run() {
	if g.serial() {
		for _, d := range g.domains {
			d.Eng.Run()
		}
	} else {
		for {
			tmin, ok := g.minNext()
			if !ok {
				break
			}
			g.window(tmin.Add(g.minLook))
		}
	}
	now := g.Now()
	for _, d := range g.domains {
		d.Eng.AdvanceTo(now)
	}
}

// RunUntil executes events with timestamps <= deadline across all domains,
// then advances every domain clock to the deadline (matching the serial
// engine's RunUntil contract, which telemetry snapshot timestamps rely
// on).
func (g *Group) RunUntil(deadline sim.Time) {
	if g.serial() {
		for _, d := range g.domains {
			d.Eng.RunUntil(deadline)
		}
		return
	}
	for {
		tmin, ok := g.minNext()
		if !ok || tmin > deadline {
			break
		}
		limit := tmin.Add(g.minLook)
		if bound := deadline + 1; limit > bound {
			limit = bound
		}
		g.window(limit)
	}
	for _, d := range g.domains {
		d.Eng.AdvanceTo(deadline)
	}
}

// RunFor executes a span of virtual time from the group's current time.
func (g *Group) RunFor(d sim.Duration) { g.RunUntil(g.Now().Add(d)) }

// Now reports the group's virtual time: the maximum domain clock, which is
// the time of the last event fired anywhere — the same value a serial
// engine's Now would report after firing the identical event set.
func (g *Group) Now() sim.Time {
	var t sim.Time
	for _, d := range g.domains {
		if n := d.Eng.Now(); n > t {
			t = n
		}
	}
	return t
}

// DrainCheck audits every domain for leaked events after a run that should
// have quiesced.
func (g *Group) DrainCheck() error {
	for _, d := range g.domains {
		if err := d.Eng.DrainCheck(); err != nil {
			return fmt.Errorf("domain %d: %w", d.idx, err)
		}
	}
	for _, c := range g.chans {
		if len(c.staged) > 0 {
			return fmt.Errorf("parallel: %d transfer(s) staged but not drained", len(c.staged))
		}
	}
	return nil
}

// serial reports whether the group degenerates to one sequential engine:
// a single domain, or multiple domains with no coupling channels (in which
// case window synchronization would have no lookahead to work with).
func (g *Group) serial() bool {
	return len(g.domains) == 1 || len(g.chans) == 0
}
