package nic

import "math"

// This file implements the flow-level (fluid) contention model used by the
// Grain-I/II bandwidth experiments: the ~6000-combination priority sweep of
// Figure 4, the priority covert channel of Figure 9 and the shuffle/join
// fingerprints of Figure 12. Latency-level (Grain-III/IV) experiments use
// the discrete-event pipeline in nic.go instead; both are parameterised by
// the same Profile so the two views describe one NIC.
//
// Topology: one server NIC shared by any number of client NICs (the paper's
// threat model, Figure 2). Flows on the same client additionally share that
// client's NIC and wire. The solver runs progressive-filling max-min over:
//
//   - each NIC's processing-unit complex, where the logical Tx arbiter has
//     strict priority over the logical Rx arbiter (Key Finding 3), with a
//     small anti-starvation floor;
//   - each NIC's host interface, where posted PCIe traffic (inbound RDMA
//     Write payload delivery) passes non-posted traffic (DMA reads that
//     fetch read-response data and descriptors) — the tag-starvation
//     behaviour that makes >=512 B write storms collapse read bandwidth;
//   - the wire directions of every client-server pair (ETS within a
//     direction);
//   - per-flow requester caps (QP count x per-QP message rate);
//   - the NoC clock boost: once the small-message load offered to the
//     server NIC crosses a threshold its complex capacity multiplies
//     (Key Finding 2), producing >200 % aggregate bandwidth under
//     small-write contention from multiple clients.

// FlowSpec describes one traffic flow for the fluid model.
type FlowSpec struct {
	Name     string
	Op       Opcode
	MsgBytes int
	QPNum    int
	// Client selects which client NIC hosts the flow; flows with the same
	// value share that client's NIC and wire.
	Client int
	// FromServer inverts the initiator (the paper's "reverse" traffic:
	// the operation is posted on the server side, targeting the client).
	FromServer bool
	TC         int
}

// FlowResult is the steady-state allocation for one flow.
type FlowResult struct {
	RateMpps    float64 // messages per microsecond
	GoodputGbps float64 // payload goodput
}

// Per-NIC resource offsets.
const (
	rComplexTx = iota
	rComplexRx
	rPCIePost
	rPCIeNonPost
	nicResources
)

// Per-client extra wire resources (client<->server direction pair), plus —
// for isolation profiles — this tenant's partitioned share of each server
// NIC resource. A flow's server-side demands are mirrored into its client's
// share resources, whose capacities are the server capacities split
// equally among the tenants; under non-ISO profiles the mirrors carry zero
// demand and never bind.
const (
	rWireUp   = nicResources + iota // client -> server
	rWireDown                       // server -> client
	rShareComplexTx
	rShareComplexRx
	rSharePCIePost
	rSharePCIeNonPost
	clientResources
)

// floorFrac is the fraction of a priority resource's capacity the
// low-priority class keeps even under full high-priority pressure
// (hardware never lets the loser starve completely, or ACK generation
// would deadlock).
const floorFrac = 0.18

// insigFrac: a flow whose full-cap demand on a resource stays below this
// fraction of capacity is treated as parasitic there (ACK bytes, CQE
// writebacks) and neither binds to nor freezes on that resource.
const insigFrac = 0.04

type fluid struct {
	p        Profile
	nClients int
	nRes     int
	dem      [][]float64 // [flow][resource]
	caps     []float64
	capacity []float64 // static capacities (priority Rx/NonPost handled separately)
	insig    [][]bool
}

// serverRes indexes a server NIC resource; clientRes a client NIC resource.
func (f *fluid) serverRes(r int) int    { return r }
func (f *fluid) clientRes(c, r int) int { return nicResources + c*clientResources + r }

// demandsInto fills the demand vector for one flow.
func (fl *fluid) demandsInto(f FlowSpec, d []float64) {
	p := fl.p
	s := float64(f.MsgBytes)
	pkts := math.Ceil(float64(f.MsgBytes) / float64(p.MTU))
	if pkts < 1 {
		pkts = 1
	}
	// Per-DMA engine overhead in equivalent bytes (~8 ns of TLP turnaround),
	// which lets small-message storms eat host-interface capacity.
	tlp := p.PCIeGBps * 8.0

	// Initiator and target resource index functions.
	ini := func(r int) int { return fl.clientRes(f.Client, r) }
	tgt := func(r int) int { return fl.serverRes(r) }
	wireIT, wireTI := fl.clientRes(f.Client, rWireUp), fl.clientRes(f.Client, rWireDown)
	if f.FromServer {
		ini, tgt = tgt, ini
		wireIT, wireTI = fl.clientRes(f.Client, rWireDown), fl.clientRes(f.Client, rWireUp)
	}

	switch f.Op {
	case OpWrite:
		d[ini(rComplexTx)] = 1
		d[ini(rPCIeNonPost)] = 96 + s + tlp // SQE + payload fetch are DMA reads
		d[ini(rPCIePost)] = 32 + tlp/2      // CQE delivery
		d[wireIT] = s + pkts*WireHeaderBytes
		d[tgt(rComplexRx)] = pkts
		d[tgt(rPCIePost)] = s + tlp // payload delivery is posted
		d[tgt(rComplexTx)] = 0.25   // coalesced ACK generation
		d[wireTI] = 0.1 * AckBytes  // ACKs coalesce and piggyback on the wire
		d[ini(rComplexRx)] = 0.25
	case OpSend:
		d[ini(rComplexTx)] = 1
		d[ini(rPCIeNonPost)] = 96 + s + tlp
		d[ini(rPCIePost)] = 32 + tlp/2
		d[wireIT] = s + pkts*WireHeaderBytes
		d[tgt(rComplexRx)] = 1.2 * pkts // recv WQE consumption is extra Rx work
		d[tgt(rPCIePost)] = s + tlp
		d[tgt(rComplexTx)] = 0.25
		d[wireTI] = 0.1 * AckBytes
		d[ini(rComplexRx)] = 0.25
	case OpRead:
		d[ini(rComplexTx)] = 1
		d[ini(rPCIeNonPost)] = 96 + tlp/2 // SQE fetch
		d[ini(rPCIePost)] = 32 + s + tlp  // response lands via posted writes
		d[wireIT] = ReadReqBytes
		d[tgt(rComplexRx)] = 0.3       // request parse rides the fast path
		d[tgt(rPCIeNonPost)] = s + tlp // response data fetch is non-posted
		d[tgt(rComplexTx)] = pkts      // response generation is Tx work
		d[wireTI] = s + pkts*WireHeaderBytes
		d[ini(rComplexRx)] = 0.5 * pkts
	case OpAtomicFAA, OpAtomicCAS:
		d[ini(rComplexTx)] = 1
		d[ini(rPCIeNonPost)] = 96 + tlp/2
		d[ini(rPCIePost)] = 40 + tlp/2
		d[wireIT] = WireHeaderBytes + 28
		d[tgt(rComplexRx)] = 1.5 // execute unit serialises on the Rx side
		d[tgt(rPCIeNonPost)] = 8 + tlp
		d[tgt(rPCIePost)] = 8 + tlp
		d[tgt(rComplexTx)] = 1
		d[wireTI] = AckBytes + 8
		d[ini(rComplexRx)] = 0.5
	}

	// Encryption profiles add AES work on both processing complexes, priced
	// in PU-time equivalents so a big payload's cipher time competes with
	// other messages for the same complex capacity.
	if et := p.encTime(f.MsgBytes); et > 0 {
		d[ini(rComplexTx)] += float64(et) / float64(p.TxPUTime)
		d[tgt(rComplexRx)] += float64(et) / float64(p.RxPUTime)
	}

	// Isolation profiles: mirror this flow's server-NIC demands into its
	// tenant's share resources, which cap the flow at the tenant's equal
	// fraction of each server resource.
	if p.ISO {
		for r := 0; r < nicResources; r++ {
			d[fl.clientRes(f.Client, rShareComplexTx+r)] = d[fl.serverRes(r)]
		}
	}
}

// requesterCap returns a flow's requester-side message-rate cap (msgs/us).
func requesterCap(p Profile, f FlowSpec) float64 {
	q := f.QPNum
	if q < 1 {
		q = 1
	}
	return float64(q) * p.MaxQPRate
}

func (fl *fluid) load(rates []float64, res int) float64 {
	var l float64
	for i := range rates {
		l += rates[i] * fl.dem[i][res]
	}
	return l
}

// solvePhase runs progressive filling with fixed low-priority capacities
// (passed in cap, which the caller has already derived from the previous
// phase's high-priority loads).
func (fl *fluid) solvePhase(cap []float64) []float64 {
	n := len(fl.caps)
	rates := make([]float64, n)
	active := make([]bool, n)
	for i := range active {
		active[i] = fl.caps[i] > 0
	}
	const eps = 1e-9
	for round := 0; round < 4*fl.nRes+n; round++ {
		anyActive := false
		for _, a := range active {
			anyActive = anyActive || a
		}
		if !anyActive {
			break
		}
		delta := math.Inf(1)
		for res := 0; res < fl.nRes; res++ {
			var growth float64
			for i := range rates {
				if active[i] && !fl.insig[i][res] {
					growth += fl.dem[i][res]
				}
			}
			if growth <= eps {
				continue
			}
			slack := cap[res] - fl.load(rates, res)
			if slack < 0 {
				slack = 0
			}
			if d := slack / growth; d < delta {
				delta = d
			}
		}
		for i := range rates {
			if active[i] {
				if d := fl.caps[i] - rates[i]; d < delta {
					delta = d
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta > 0 {
			for i := range rates {
				if active[i] {
					rates[i] += delta
				}
			}
		}
		frozeAny := false
		for i := range rates {
			if !active[i] {
				continue
			}
			if fl.caps[i]-rates[i] <= eps {
				active[i] = false
				frozeAny = true
				continue
			}
			for res := 0; res < fl.nRes; res++ {
				if fl.dem[i][res] > eps && !fl.insig[i][res] &&
					cap[res]-fl.load(rates, res) <= 1e-6*cap[res]+eps {
					active[i] = false
					frozeAny = true
					break
				}
			}
		}
		if delta <= 0 && !frozeAny {
			break
		}
	}
	return rates
}

// Solve computes steady-state rates for a set of concurrent flows between
// client NICs and one server NIC sharing the given profile. It returns one
// result per flow in input order.
func Solve(p Profile, flows []FlowSpec) []FlowResult {
	n := len(flows)
	if n == 0 {
		return nil
	}
	nClients := 1
	for _, f := range flows {
		if f.Client+1 > nClients {
			nClients = f.Client + 1
		}
	}
	fl := &fluid{p: p, nClients: nClients}
	fl.nRes = nicResources + nClients*clientResources
	fl.dem = make([][]float64, n)
	fl.caps = make([]float64, n)
	for i, f := range flows {
		fl.dem[i] = make([]float64, fl.nRes)
		fl.demandsInto(f, fl.dem[i])
		fl.caps[i] = requesterCap(p, f)
	}

	// NoC boost (Key Finding 2): triggered by the small-message load offered
	// to the server NIC, which every flow crosses.
	var smallLoad float64
	for i, f := range flows {
		if f.MsgBytes <= p.NoCSmallMsg {
			smallLoad += fl.caps[i]
		}
	}
	complexCap := p.ComplexPPS
	if smallLoad > p.NoCBoostPPS {
		complexCap *= p.NoCBoost
	}
	pcieCap := p.PCIeGBps * 1000.0           // bytes/us
	wireCap := p.LineRateGbps / 8.0 * 1000.0 // bytes/us

	// Static (high-priority / non-priority) capacities.
	capacity := make([]float64, fl.nRes)
	setNIC := func(base int) {
		capacity[base+rComplexTx] = complexCap
		capacity[base+rComplexRx] = complexCap
		capacity[base+rPCIePost] = pcieCap
		capacity[base+rPCIeNonPost] = pcieCap
	}
	setNIC(0)
	for c := 0; c < nClients; c++ {
		base := nicResources + c*clientResources
		setNIC(base)
		capacity[base+rWireUp] = wireCap
		capacity[base+rWireDown] = wireCap
		// Tenant shares of the server NIC: on an isolation profile every
		// tenant owns an equal fraction. A lone tenant owns the full
		// capacities, so a solo ISO flow pays nothing for the partition;
		// under non-ISO profiles the mirrors carry zero demand and the
		// full-capacity setting keeps them inert.
		share := 1.0
		if p.ISO && nClients > 1 {
			share = 1 / float64(nClients)
		}
		capacity[base+rShareComplexTx] = complexCap * share
		capacity[base+rShareComplexRx] = complexCap * share
		capacity[base+rSharePCIePost] = pcieCap * share
		capacity[base+rSharePCIeNonPost] = pcieCap * share
	}

	fl.capacity = capacity
	fl.insig = make([][]bool, n)
	for i := range fl.insig {
		fl.insig[i] = make([]bool, fl.nRes)
		for res := 0; res < fl.nRes; res++ {
			fl.insig[i][res] = fl.dem[i][res]*fl.caps[i] < insigFrac*capacity[res]
		}
	}

	// Phase iteration: high-priority loads define low-priority capacities.
	// Start optimistic, then tighten until stable.
	cur := append([]float64(nil), capacity...)
	var rates []float64
	for phase := 0; phase < 24; phase++ {
		rates = fl.solvePhase(cur)
		// Damped update: the tx-load/rx-capacity feedback loop (a flow's Tx
		// priority can starve the Rx ring its own requests need) oscillates
		// without averaging.
		lower := func(base int) {
			tx := fl.load(rates, base+rComplexTx)
			want := math.Max(floorFrac*complexCap, complexCap-tx)
			cur[base+rComplexRx] = 0.5*cur[base+rComplexRx] + 0.5*want
			post := fl.load(rates, base+rPCIePost)
			want = math.Max(floorFrac*pcieCap, pcieCap-post)
			cur[base+rPCIeNonPost] = 0.5*cur[base+rPCIeNonPost] + 0.5*want
		}
		// The isolation architecture replaces the server's strict priorities
		// (Tx over Rx, posted over non-posted) with the tenant shares
		// above, so the server keeps its full static capacities — that is
		// exactly what kills the KF3 priority channel. Client NICs are
		// unmodified hardware and keep the priority damping.
		if !p.ISO {
			lower(0)
		}
		for c := 0; c < nClients; c++ {
			lower(nicResources + c*clientResources)
		}
	}

	out := make([]FlowResult, n)
	for i, f := range flows {
		out[i] = FlowResult{
			RateMpps:    rates[i],
			GoodputGbps: rates[i] * float64(f.MsgBytes) * 8.0 / 1000.0,
		}
	}
	return out
}

// Solo returns the bandwidth a flow achieves with no competition.
func Solo(p Profile, f FlowSpec) FlowResult {
	return Solve(p, []FlowSpec{f})[0]
}

// ReductionPct returns how much of the solo goodput is lost under
// contention, in percent (negative values mean the flow gained bandwidth).
func ReductionPct(solo, contended FlowResult) float64 {
	if solo.GoodputGbps == 0 {
		return 0
	}
	return (1 - contended.GoodputGbps/solo.GoodputGbps) * 100
}
