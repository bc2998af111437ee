package nic

import "github.com/thu-has/ragnar/internal/sim"

// MaxTenants bounds the per-tenant state in the DWRR arbiter and the ISO
// credit pools. Fixed arrays keep the hot path allocation-free.
const MaxTenants = 8

// dwrrQuantum is the byte credit a DWRR tenant earns per visit: half an MTU
// on the modeled parts, small enough that interleaving happens at message
// granularity.
const dwrrQuantum = 2048

// StrictArbiter reproduces the legacy priority server: first index of the
// minimum class. Because the arbitrated queue is FIFO by arrival, picking
// the first minimum-class entry at every dequeue yields exactly the
// schedule of the old sorted-insert + pop-front priority queue.
type StrictArbiter struct{}

func (StrictArbiter) Pick(q []sim.ReqMeta) int {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i].Class < q[best].Class {
			best = i
		}
	}
	return best
}

// DWRRArbiter is a deficit round-robin scheduler over tenants, the
// GLSVLSI'23 isolation TX architecture. Each tenant accumulates
// dwrrQuantum bytes of credit per visit; a tenant whose head-of-line
// request fits its deficit is served and charged, so one tenant's burst
// cannot starve another's schedule. Tenant IDs outside [0, MaxTenants)
// fold into slot 0.
type DWRRArbiter struct {
	deficit [MaxTenants]int64
	next    int // round-robin cursor, persists across picks
}

// NewDWRRArbiter builds a DWRR arbiter with every deficit empty.
func NewDWRRArbiter() *DWRRArbiter { return &DWRRArbiter{} }

func tenantSlot(t int) int {
	if t < 0 || t >= MaxTenants {
		return 0
	}
	return t
}

// Pick scans the waiting requests, finds each present tenant's head-of-line
// entry (lowest queue index — arrival order within a tenant is preserved),
// then cycles the round-robin cursor topping up deficits until some
// tenant's head-of-line cost fits. The cycle count is bounded: one top-up
// adds dwrrQuantum bytes, so at most maxBytes/dwrrQuantum + MaxTenants
// visits are needed; a hard cap keeps adversarial inputs from looping,
// falling back to the first present tenant.
func (a *DWRRArbiter) Pick(q []sim.ReqMeta) int {
	if len(q) == 1 {
		return 0
	}
	// Head-of-line request per tenant. -1 = tenant not present.
	var head [MaxTenants]int
	for i := range head {
		head[i] = -1
	}
	present := 0
	for i := range q {
		t := tenantSlot(q[i].Tenant)
		if head[t] < 0 {
			head[t] = i
			present++
		}
	}
	if present == 1 {
		for t := range head {
			if head[t] >= 0 {
				return head[t]
			}
		}
	}
	// Bounded credit cycle: visit tenants round-robin from the persistent
	// cursor; serve the first whose deficit covers its head-of-line bytes,
	// topping up one quantum per unsatisfied visit.
	const maxVisits = 4096
	for visit := 0; visit < maxVisits; visit++ {
		t := (a.next + visit) % MaxTenants
		if head[t] < 0 {
			continue
		}
		cost := int64(q[head[t]].Bytes)
		if cost < 1 {
			cost = 1
		}
		if a.deficit[t] >= cost {
			a.deficit[t] -= cost
			// Keep the cursor on t: a tenant holds the scheduler until its
			// deficit is spent (classic DWRR visit semantics). Advancing past
			// it after every single pick would top up the other tenants once
			// per pick instead of once per round.
			a.next = t
			return head[t]
		}
		a.deficit[t] += dwrrQuantum
	}
	// Unreachable for sane quanta; serve the first present tenant so the
	// server always makes progress.
	for t := range head {
		if head[t] >= 0 {
			return head[t]
		}
	}
	return 0
}

// arbiterFor builds the profile's egress arbiter: DWRR over tenants on an
// isolation profile, strict priority otherwise. Each NIC gets its own
// (DWRR carries per-tenant deficit state).
func arbiterFor(p Profile) sim.Arbiter {
	if p.ISO {
		return NewDWRRArbiter()
	}
	return StrictArbiter{}
}
