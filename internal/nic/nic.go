package nic

import (
	"fmt"
	"maps"
	"slices"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// Opcode is an RDMA operation code (the Grain-II parameter).
type Opcode int

// Supported opcodes. OpWait and OpEnable are management WQEs (the RedN
// chain-sequencing verbs): they execute on the local SQ state machine and
// never reach the wire.
const (
	OpWrite Opcode = iota
	OpRead
	OpSend
	OpAtomicFAA
	OpAtomicCAS
	OpWait
	OpEnable
)

func (o Opcode) String() string {
	switch o {
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpSend:
		return "SEND"
	case OpAtomicFAA:
		return "ATOMIC_FAA"
	case OpAtomicCAS:
		return "ATOMIC_CAS"
	case OpWait:
		return "WAIT"
	case OpEnable:
		return "ENABLE"
	}
	return fmt.Sprintf("OP(%d)", int(o))
}

// Status reports the outcome of a work request.
type Status int

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRemoteAccessError
	StatusBadQP
	// StatusSeqNak is a transport-level NAK (PSN sequence error): the
	// responder saw a gap in the PSN stream. It never surfaces as a CQE —
	// the requester rewinds and retransmits (go-back-N).
	StatusSeqNak
	// StatusRetryExcErr surfaces retry exhaustion as an error CQE, the
	// simulator's IBV_WC_RETRY_EXC_ERR. The QP moves to the error state.
	StatusRetryExcErr
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRemoteAccessError:
		return "REMOTE_ACCESS_ERROR"
	case StatusBadQP:
		return "BAD_QP"
	case StatusSeqNak:
		return "NAK_SEQ_ERR"
	case StatusRetryExcErr:
		return "RETRY_EXC_ERR"
	}
	return fmt.Sprintf("STATUS(%d)", int(s))
}

// Message is the unit exchanged between NICs over the fabric. A request
// carries the operation; a response carries the request's PSN with IsResp
// set, so a request is named by its QP and PSN, as its frames name it. The
// NIC passes messages by value: every holder keeps its own copy.
//
// A message travels only as its frames. The sending NIC encodes them when
// it transmits, reading Data, the payload of a WRITE or SEND request or a
// READ response, once per transmission; the receiver decodes its own
// Message from them and copies the payload out of them into a buffer of its
// own. No frame carries SrcQPN: a responder answers the peer QP in the
// context of the QP a request names.
type Message struct {
	Op         Opcode
	SrcQPN     uint32
	DstQPN     uint32
	RKey       uint32
	RemoteAddr uint64
	Length     int
	Data       []byte
	IsResp     bool
	Status     Status
	// PSN is the QP's 24-bit packet sequence number: assigned per request
	// by the requester, echoed on the response. AckPSN is the cumulative
	// acknowledgement a response carries (for a NAK: the last in-order PSN
	// the responder received).
	PSN    uint32
	AckPSN uint32
	// Atomic operands.
	CompareAdd uint64
	Swap       uint64
	TC         int
}

// WQE is a posted work queue element.
type WQE struct {
	WRID       uint64
	Op         Opcode
	LocalData  []byte // payload for WRITE/SEND; receive buffer for READ
	RemoteKey  uint32
	RemoteAddr uint64
	Length     int
	TC         int
	CompareAdd uint64
	Swap       uint64

	// Management fields (OpWait/OpEnable): the counter a WAIT blocks on and
	// its threshold; the QP an ENABLE advances and by how many entries
	// (0 = everything staged).
	WaitCQ      *CQCounter
	WaitThresh  uint64
	TargetQPN   uint32
	EnableCount int

	// Local landing target for READs: when LocalKey names a registered MR,
	// the payload is also placed at LocalAddr inside it (and may patch a
	// registered SQ window there). Zero = host-buffer-only, the legacy path.
	LocalKey  uint32
	LocalAddr uint64
}

// Completion is delivered to the verbs layer when a WQE finishes.
type Completion struct {
	QPN      uint32
	WRID     uint64
	Op       Opcode
	Status   Status
	Bytes    int
	Result   uint64 // original value for atomics
	PostTime sim.Time
	DoneTime sim.Time
}

// RecvEvent is delivered when an inbound SEND lands in a posted receive
// buffer or an inbound WRITE completes (for apps that watch memory).
type RecvEvent struct {
	QPN   uint32
	Op    Opcode
	Bytes int
	// Data is a SEND's payload. The NIC reuses its buffer once the callback
	// returns, so a receiver that keeps the bytes copies them.
	Data []byte
}

// MRInfo registers a memory region with the responder pipeline.
type MRInfo struct {
	Key         uint32
	Base        uint64
	Size        uint64
	Region      *host.Region
	PageSize    uint64
	RemoteRead  bool
	RemoteWrite bool
	Atomic      bool
}

type qpState struct {
	qpn        uint32
	peer       *NIC
	peerQPN    uint32
	onComplete func(Completion)
	onRecv     func(RecvEvent)
	recvQueue  [][]byte

	// Requester-side go-back-N transport state.
	nextPSN       uint32     // next PSN to assign (24-bit)
	outstanding   []*pending // launched, unanswered requests in PSN order (their only record); retransmit set on timeout/NAK
	retries       int        // consecutive timeouts without progress
	rtxTimer      sim.Event  // pending retransmit timeout (zero/stale when idle)
	rtxFire       func()     // onRetryTimeout bound to this QP once, at CreateQP
	retryTimeout  sim.Duration
	retryLimit    int
	progressEpoch uint64 // bumped on every completion
	rewindEpoch   uint64 // progressEpoch at the last NAK-triggered rewind
	failed        bool   // retry budget exhausted: QP is in the error state

	// Responder-side transport state.
	epsn            uint32 // next expected PSN
	nakArmed        bool   // one NAK-seq per gap until the stream recovers
	atomicReplayOK  bool   // duplicate-atomic replay record (IB replay buffer)
	atomicReplayPSN uint32
	atomicReplayVal uint64

	// Send-queue state machine (see sq.go): the staged ring, the doorbell
	// cursor (entries below sqEnabled may execute), whether the head WAIT is
	// armed on a counter, and the CQ consumer counter completions bump. The
	// ring holds copies of the posted WQEs, so a caller's WQE never outlives
	// its post call.
	sq        []WQE
	sqHead    int
	sqEnabled int
	sqArmed   bool
	cqc       *CQCounter

	// In-order placement gate (the IB responder memory-ordering rule): the
	// ULP-visible effect of each accepted request — memory placement, recv
	// delivery, the response — fires in PSN-acceptance order, even though
	// the execution pipelines behind it (TPU, multi-channel host DMA) can
	// finish out of order. Without this a 16-byte SEND overtakes a 16 KB
	// WRITE accepted just before it, and an upper layer that treats the
	// SEND as a commit record observes the write before its data landed.
	placeNext uint64            // next ticket, assigned at PSN acceptance
	placeHead uint64            // next ticket allowed to fire
	placeWait map[uint64]func() // finished effects (their ops' fire) blocked behind earlier tickets
}

// place fires a finished request's visible effect as soon as every
// earlier-accepted request on this QP has fired its own, queueing it
// otherwise. Tickets are dense, so the wait map drains strictly in order.
func (qp *qpState) place(ticket uint64, fn func()) {
	if ticket != qp.placeHead {
		if qp.placeWait == nil {
			qp.placeWait = map[uint64]func(){}
		}
		qp.placeWait[ticket] = fn
		return
	}
	fn()
	qp.placeHead++
	for {
		next, ok := qp.placeWait[qp.placeHead]
		if !ok {
			return
		}
		delete(qp.placeWait, qp.placeHead)
		next()
		qp.placeHead++
	}
}

// Counters aggregates the NIC's ethtool-visible and HARMONIC-visible
// telemetry: Grain-I (per-TC), Grain-II (per-opcode) and Grain-III
// (per-QP/MR) counts. It is the only declaration of the counter set:
// telemetry.Snapshot embeds it, so a new counter is one field here, one line
// in Sub and, if the HARMONIC monitor should see it, one row in
// defense.features.
type Counters struct {
	TxMsgs     map[Opcode]uint64
	RxMsgs     map[Opcode]uint64
	TxBytes    uint64
	RxBytes    uint64
	TxBytesTC  [8]uint64 // Grain-I: per-traffic-class egress bytes
	RxBytesTC  [8]uint64 // Grain-I: per-traffic-class ingress bytes
	PerQPMsgs  map[uint32]uint64
	PerMRBytes map[uint32]uint64
	Responses  uint64
	NAKs       uint64
	// PFCPauses counts per-TC priority-flow-control pause events: the
	// egress queue for a class exceeded the XOFF threshold. This is the
	// native Grain-I signal the paper notes "modern RNIC provides ...
	// to detect and defend Grain-I attacks easily".
	PFCPauses [8]uint64

	// Grain-I loss/reliability observables (ethtool: tx_discards,
	// rp_cnp-style retransmit telemetry).
	//
	// WireDropsTC aggregates per-TC egress wire loss across this NIC's
	// links: tail drops at the egress queue plus FaultPlan in-flight drops.
	// It is refreshed from the links on every Counters() call.
	WireDropsTC [8]uint64
	Retransmits uint64 // requester packets re-sent (timeout or NAK rewind)
	Timeouts    uint64 // retransmit timer expiries
	DupAcks     uint64 // responses for already-completed WQEs, coalesced
	DupReqs     uint64 // duplicate requests seen by the responder
	SeqNaks     uint64 // NAK-sequence-errors sent by the responder
	RetryExc    uint64 // QPs that exhausted their retry budget
	RxCorrupt   uint64 // inbound packets discarded for corruption (ICRC)

	// Abuse observables (the NeVerMore surface). All three are structurally
	// zero under benign operation — random wire loss produces retransmits,
	// NAKs and duplicate ACKs, but never a request for a nonexistent QP, a
	// NAK whose gap head is not outstanding, or a frame at exactly half the
	// PSN space — which is what lets defense.features separate
	// protocol abuse from the loss grid's benign degradation.
	RxBadQP     uint64 // requests addressed to a QPN this NIC never created
	InvalidNaks uint64 // NAK-seq rejected: gap head not an outstanding PSN
	InvalidAcks uint64 // responses at a PSN the QP has not launched
	RxBadPSN    uint64 // requests at the unordered half-space PSN distance

	// Finite-resource observables (the exhaustion surface): ICM context
	// cache traffic, per-page translation misses and completion-queue
	// overruns. Ctx* and MTTMisses are refreshed from the caches on every
	// Counters() call; CQOverruns increments as full CQs drop CQEs.
	CtxHits      uint64 // ICM context cache (QPC+MPT) hits
	CtxMisses    uint64 // ICM context cache misses (each cost a DMA fetch)
	CtxEvictions uint64 // contexts evicted to make room (capacity pressure)
	MTTMisses    uint64 // TPU translation-cache misses
	CQOverruns   uint64 // completions dropped at full CQs

	// Encryption observables (the AES-per-verb pricing model): messages
	// that paid the AES latency and the payload bytes they covered. Both
	// are structurally zero on profiles without the encryption knobs.
	EncOps   uint64
	EncBytes uint64

	// RedN offload observables (the chain surface): WAIT/ENABLE management
	// WQEs executed, armed WAITs woken by a CQ-counter bump, and staged
	// WQEs rewritten in place by a write landing in a registered SQ window.
	// All structurally zero outside offloaded-chain workloads.
	WaitWQEs     uint64
	EnableWQEs   uint64
	WaitWakes    uint64
	SelfModifies uint64
}

func newCounters() Counters {
	return Counters{
		TxMsgs:     make(map[Opcode]uint64),
		RxMsgs:     make(map[Opcode]uint64),
		PerQPMsgs:  make(map[uint32]uint64),
		PerMRBytes: make(map[uint32]uint64),
	}
}

// Clone returns a copy of c that shares no map with it, so the copy stays
// fixed while the NIC keeps counting.
func (c *Counters) Clone() Counters {
	d := *c
	d.TxMsgs = maps.Clone(c.TxMsgs)
	d.RxMsgs = maps.Clone(c.RxMsgs)
	d.PerQPMsgs = maps.Clone(c.PerQPMsgs)
	d.PerMRBytes = maps.Clone(c.PerMRBytes)
	return d
}

// Sub returns the increments from prev to c, field by field. A map key
// missing from prev counts from zero; a key only in prev is dropped. A new
// counter field needs its own line here.
func (c *Counters) Sub(prev *Counters) Counters {
	return Counters{
		TxMsgs:       subMap(c.TxMsgs, prev.TxMsgs),
		RxMsgs:       subMap(c.RxMsgs, prev.RxMsgs),
		TxBytes:      c.TxBytes - prev.TxBytes,
		RxBytes:      c.RxBytes - prev.RxBytes,
		TxBytesTC:    subTC(c.TxBytesTC, prev.TxBytesTC),
		RxBytesTC:    subTC(c.RxBytesTC, prev.RxBytesTC),
		PerQPMsgs:    subMap(c.PerQPMsgs, prev.PerQPMsgs),
		PerMRBytes:   subMap(c.PerMRBytes, prev.PerMRBytes),
		Responses:    c.Responses - prev.Responses,
		NAKs:         c.NAKs - prev.NAKs,
		PFCPauses:    subTC(c.PFCPauses, prev.PFCPauses),
		WireDropsTC:  subTC(c.WireDropsTC, prev.WireDropsTC),
		Retransmits:  c.Retransmits - prev.Retransmits,
		Timeouts:     c.Timeouts - prev.Timeouts,
		DupAcks:      c.DupAcks - prev.DupAcks,
		DupReqs:      c.DupReqs - prev.DupReqs,
		SeqNaks:      c.SeqNaks - prev.SeqNaks,
		RetryExc:     c.RetryExc - prev.RetryExc,
		RxCorrupt:    c.RxCorrupt - prev.RxCorrupt,
		RxBadQP:      c.RxBadQP - prev.RxBadQP,
		InvalidNaks:  c.InvalidNaks - prev.InvalidNaks,
		InvalidAcks:  c.InvalidAcks - prev.InvalidAcks,
		RxBadPSN:     c.RxBadPSN - prev.RxBadPSN,
		CtxHits:      c.CtxHits - prev.CtxHits,
		CtxMisses:    c.CtxMisses - prev.CtxMisses,
		CtxEvictions: c.CtxEvictions - prev.CtxEvictions,
		MTTMisses:    c.MTTMisses - prev.MTTMisses,
		CQOverruns:   c.CQOverruns - prev.CQOverruns,
		EncOps:       c.EncOps - prev.EncOps,
		EncBytes:     c.EncBytes - prev.EncBytes,
		WaitWQEs:     c.WaitWQEs - prev.WaitWQEs,
		EnableWQEs:   c.EnableWQEs - prev.EnableWQEs,
		WaitWakes:    c.WaitWakes - prev.WaitWakes,
		SelfModifies: c.SelfModifies - prev.SelfModifies,
	}
}

func subTC(cur, prev [8]uint64) (d [8]uint64) {
	for i := range cur {
		d[i] = cur[i] - prev[i]
	}
	return d
}

func subMap[K comparable](cur, prev map[K]uint64) map[K]uint64 {
	d := make(map[K]uint64, len(cur))
	for k, v := range cur {
		d[k] = v - prev[k]
	}
	return d
}

// NIC is one simulated RDMA adapter plugged into a host and an egress link.
type NIC struct {
	Name string

	eng  *sim.Engine
	prof Profile
	hst  *host.Host
	numa int // NUMA node the NIC attaches to

	links map[*NIC]*fabric.Link // egress link per peer NIC

	tpu     *TPU
	tpuSrv  *sim.Server   // the TPU pipeline serialises translations
	qpc     *ContextCache // ICM context cache: QP contexts, plus MR contexts when priced
	hostDMA *sim.Server
	txPU    *sim.Server
	rxPU    *sim.Server
	egress  *sim.Server // priority: class 0 = requester ring, 1 = responder ring

	qps map[uint32]*qpState
	mrs map[uint32]*MRInfo

	// sqWins holds the registered SQ self-modification windows (see sq.go).
	// Empty outside offload workloads: every patch hook gates on its length,
	// so the legacy datapath never pays for the feature.
	sqWins []sqWindow

	// Tenant attribution for isolation profiles: qpTenant maps a local QPN
	// to its tenant slot (unmapped QPs fold into slot 0). The lab layer
	// tags server-side QPs by client index at connection time.
	qpTenant map[uint32]int
	// Per-tenant responder credit pools (isolation profiles): a request
	// must take a credit before entering the responder PU; requests beyond
	// the pool of isoPoolDepth wait FIFO per tenant, so one tenant cannot
	// occupy the whole processing complex.
	isoCredits [MaxTenants]int
	isoWait    [MaxTenants][]func() // waiting ops' fire, FIFO per tenant
	// isoHeld holds the requests, by responder QPN and PSN, that hold (or
	// wait for) a credit. A copy of a held request (a retransmission or a
	// replay) re-enters the pipeline without a second credit, and respond
	// releases each request's credit once. Nil outside isolation profiles.
	isoHeld map[uint64]struct{}

	counters Counters
	// cqeDigest folds every delivered CQE (see CompletionDigest).
	cqeDigest uint64

	// Tap, when set, receives every departing frame
	// fully encapsulated (Ethernet+IPv4+UDP+RoCEv2) at its departure time —
	// the hook the pcap exporter uses.
	Tap func(at sim.Time, frame []byte)
	ip  [4]byte

	// addr is the fabric-level address stamped into every departing packet's
	// Dst field. verbs.Network assigns it (a bare counter, no RNG) when the
	// NIC first joins a topology; switches use it for forwarding-table
	// lookups. Direct point-to-point links ignore it entirely, so legacy
	// two-host rigs behave identically whether or not an address was set.
	addr uint32

	// Flight recorder (nil = tracing off; every emit site is a nil check).
	rec      *trace.Recorder
	arbActor uint16 // egress arbiter lane
	rxActor  uint16 // ingress pipeline lane
	psnActor uint16 // go-back-N transport lane
	cqeActor uint16 // completion lane

	// Free lists for the per-packet datapath structs (see pipeline.go). The
	// engine is single-threaded, so these are plain slices (no sync.Pool —
	// its GC-coupled reuse would be nondeterministic across runs; an
	// explicit free list recycles at fixed points in the event order,
	// keeping runs byte-identical). Messages are values: each responder
	// operation holds its own copy, and an envelope holds only frames, so
	// nothing is shared between the NICs of a rig. Envelopes migrate: the receiver
	// recycles them. Across engine domains the hand-over happens at the
	// window barrier, so never a race.
	pendFree []*pending
	opFree   []*respOp
	envFree  []*envelope
	// payFree holds the payload buffers responder operations copy WRITE
	// and SEND payloads into; an operation takes one only while it carries
	// a payload. payArr backs the list's first four entries, so a new NIC
	// does not allocate it.
	payFree [][]byte
	payArr  [4][]byte

	// rbuf is the buffer the responder reads READ payloads into. The
	// response's frames are encoded from it inside respond, so it is free
	// again when respond returns.
	rbuf []byte

	// rx is the parse state Deliver decodes arriving frames with.
	rx frameReader
}

// isoPoolDepth is how many responder credits each tenant's pool holds on
// an isolation profile.
const isoPoolDepth = 8

// New creates a NIC on a host. Call AddPeerLink before any traffic flows.
func New(eng *sim.Engine, name string, p Profile, h *host.Host, numa int) *NIC {
	n := &NIC{
		Name: name, eng: eng, prof: p, hst: h, numa: numa,
		tpu:       NewTPU(p, eng.Rand()),
		qpc:       NewContextCache(p.QPCCacheEntries),
		links:     make(map[*NIC]*fabric.Link),
		qps:       make(map[uint32]*qpState),
		mrs:       make(map[uint32]*MRInfo),
		counters:  newCounters(),
		cqeDigest: cqeDigestBasis,
	}
	n.rx.segs = n.rx.segArr[:0]
	n.payFree = n.payArr[:0]
	// The DMA engine holds several outstanding tags; the TPU is a single
	// in-order translation pipeline — that is what makes the remote-address
	// offset the first-order term of ULI (Key Finding 4).
	n.hostDMA = sim.NewServer(eng, name+"/dma", 4)
	n.tpuSrv = sim.NewServer(eng, name+"/tpu", 1)
	n.txPU = sim.NewServer(eng, name+"/txpu", p.RequesterSlots)
	n.rxPU = sim.NewServer(eng, name+"/rxpu", p.ResponderSlots)
	// The egress server is arbitrated by the profile's arbiter. The strict
	// arbiter reproduces the old priority server's schedule exactly (first
	// index of the minimum class over a FIFO queue == sorted-insert +
	// pop-front), so legacy profiles stay byte-identical.
	n.egress = sim.NewArbitratedServer(eng, name+"/egress", 1, arbiterFor(p))
	if p.ISO {
		n.isoHeld = make(map[uint64]struct{})
		for i := range n.isoCredits {
			n.isoCredits[i] = isoPoolDepth
		}
	}
	return n
}

// SetQPTenant attributes a local QP to a tenant slot for the isolation
// profiles' per-tenant scheduling and credit pools. Unmapped QPs are slot 0.
func (n *NIC) SetQPTenant(qpn uint32, tenant int) {
	if n.qpTenant == nil {
		n.qpTenant = make(map[uint32]int)
	}
	n.qpTenant[qpn] = tenantSlot(tenant)
}

func (n *NIC) tenantOf(qpn uint32) int { return n.qpTenant[qpn] }

// isoKey names a request in the held-credit set by what its frames carry:
// the responder QPN and the PSN. A retransmission or a replay of a request
// names the same key as the request.
func isoKey(m *Message) uint64 { return uint64(m.DstQPN)<<32 | uint64(m.PSN) }

// isoAdmit runs fn once the tenant holds a responder credit; with the pools
// disabled it runs fn immediately.
func (n *NIC) isoAdmit(tenant int, fn func()) {
	if !n.prof.ISO {
		fn()
		return
	}
	t := tenantSlot(tenant)
	if n.isoCredits[t] > 0 {
		n.isoCredits[t]--
		fn()
		return
	}
	n.isoWait[t] = append(n.isoWait[t], fn)
}

// isoRelease returns a tenant's credit, handing it straight to the oldest
// waiter if one is queued.
func (n *NIC) isoRelease(tenant int) {
	if !n.prof.ISO {
		return
	}
	t := tenantSlot(tenant)
	if w := n.isoWait[t]; len(w) > 0 {
		fn := w[0]
		copy(w, w[1:])
		n.isoWait[t] = w[:len(w)-1]
		fn()
		return
	}
	n.isoCredits[t]++
}

// encCharge prices AES for one message's payload and records the telemetry;
// zero (and counter-free) on profiles without the encryption knobs.
func (n *NIC) encCharge(bytes int) sim.Duration {
	d := n.prof.encTime(bytes)
	if d > 0 {
		n.counters.EncOps++
		if bytes > 0 {
			n.counters.EncBytes += uint64(bytes)
		}
	}
	return d
}

// Profile returns the adapter profile.
func (n *NIC) Profile() Profile { return n.prof }

// SetRecorder attaches a flight recorder. The NIC registers one actor lane
// per pipeline stage (arbiter, ingress, transport, completion) so the trace
// viewer shows them as separate threads. Nil disables tracing; the disabled
// hot path is a nil check with zero allocations (benchmark-guarded).
func (n *NIC) SetRecorder(r *trace.Recorder) {
	n.rec = r
	n.arbActor = r.RegisterActor(n.Name + "/arb")
	n.rxActor = r.RegisterActor(n.Name + "/rx")
	n.psnActor = r.RegisterActor(n.Name + "/psn")
	n.cqeActor = r.RegisterActor(n.Name + "/cqe")
}

// Recorder returns the attached flight recorder (nil when tracing is off).
func (n *NIC) Recorder() *trace.Recorder { return n.rec }

// TPU exposes the translation unit (reverse-engineering benchmarks inspect
// its counters; Pythia needs its MTT).
func (n *NIC) TPU() *TPU { return n.tpu }

// Counters returns a snapshot view of the NIC counters. Per-TC wire-drop
// counts are refreshed from the egress links (summing is order-independent,
// so map iteration stays deterministic). Switched topologies map several
// peers to one shared uplink, so each distinct link is counted once.
func (n *NIC) Counters() *Counters {
	var drops [8]uint64
	var uniq []*fabric.Link
	count := func(l *fabric.Link) {
		for _, u := range uniq {
			if u == l {
				return
			}
		}
		uniq = append(uniq, l)
		for tc := 0; tc < fabric.NumTCs; tc++ {
			drops[tc] += l.Drops(tc) + l.FaultDrops(tc)
		}
	}
	for _, l := range n.links {
		count(l)
	}
	n.counters.WireDropsTC = drops
	n.counters.CtxHits, n.counters.CtxMisses, n.counters.CtxEvictions = n.qpc.Stats()
	_, _, _, n.counters.MTTMisses = n.tpu.Counters()
	return &n.counters
}

// AddPeerLink attaches the transmit link toward a peer NIC. The verbs layer
// calls this when wiring a topology. In switched topologies several peers
// share one physical uplink — the map simply stores the same *Link for each.
func (n *NIC) AddPeerLink(peer *NIC, l *fabric.Link) { n.links[peer] = l }

// SetAddr installs the NIC's fabric-level address (see the addr field) and
// numbers the synthetic IP (and so the MACs) a Tap sees from it, so the
// frames of one rig do not depend on what else the process built.
func (n *NIC) SetAddr(a uint32) {
	n.addr = a
	n.ip = [4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)}
}

// Addr returns the fabric-level address (0 until the NIC joins a topology).
func (n *NIC) Addr() uint32 { return n.addr }

// CreateQP registers a queue pair. onComplete receives requester
// completions; onRecv receives inbound SEND deliveries (may be nil).
func (n *NIC) CreateQP(qpn uint32, onComplete func(Completion), onRecv func(RecvEvent)) error {
	if _, dup := n.qps[qpn]; dup {
		return fmt.Errorf("nic %s: QP %d already exists", n.Name, qpn)
	}
	// rewindEpoch starts off any valid progressEpoch so the first NAK of a
	// connection's lifetime always triggers a rewind. The go-back-N window
	// is preallocated so steady-state posting never grows it.
	qp := &qpState{qpn: qpn, onComplete: onComplete, onRecv: onRecv,
		rewindEpoch: ^uint64(0), outstanding: make([]*pending, 0, 64)}
	qp.rtxFire = func() { n.onRetryTimeout(qp) }
	n.qps[qpn] = qp
	return nil
}

// DestroyQP tears down a queue pair: the armed retransmit timer is
// cancelled (leaving it would hold a live event past quiesce — exactly the
// leak the parallel barrier's DrainCheck flags), outstanding WQEs are
// abandoned without completions (matching ibv_destroy_qp, which flushes
// nothing once the QP leaves RTS), and the QPN becomes reusable. In-flight
// messages referencing the QP resolve against the map and are dropped on
// arrival.
func (n *NIC) DestroyQP(qpn uint32) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	qp.rtxTimer.Cancel()
	qp.rtxTimer = sim.Event{}
	// Responses still in flight find no QP and count as duplicates; the
	// pendings are left to the GC.
	qp.outstanding = nil
	// Abandon the staged ring: a WAIT armed on a counter may still fire its
	// wake, but with head == enabled == 0 the advance is a no-op. Windows
	// shadowing the QP are dropped with it.
	qp.sq, qp.sqHead, qp.sqEnabled = nil, 0, 0
	if len(n.sqWins) > 0 {
		kept := n.sqWins[:0]
		for _, w := range n.sqWins {
			if w.qp != qp {
				kept = append(kept, w)
			}
		}
		n.sqWins = kept
	}
	delete(n.qps, qpn)
	return nil
}

// ConnectQP binds a local QP to a peer NIC and QPN (RC connection).
func (n *NIC) ConnectQP(qpn uint32, peer *NIC, peerQPN uint32) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	qp.peer = peer
	qp.peerQPN = peerQPN
	return nil
}

// RegisterMR makes a region remotely accessible under key.
func (n *NIC) RegisterMR(info MRInfo) error {
	if _, dup := n.mrs[info.Key]; dup {
		return fmt.Errorf("nic %s: MR key %d already registered", n.Name, info.Key)
	}
	if info.PageSize == 0 {
		info.PageSize = uint64(host.Page2M)
	}
	cp := info
	n.mrs[info.Key] = &cp
	return nil
}

// DeregisterMR removes a region.
func (n *NIC) DeregisterMR(key uint32) { delete(n.mrs, key) }

// PostRecv queues a host buffer for inbound SENDs on a QP.
func (n *NIC) PostRecv(qpn uint32, buf []byte) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	qp.recvQueue = append(qp.recvQueue, buf)
	return nil
}

// wireBytes returns the on-wire size of a request message.
func (n *NIC) wireBytes(m *Message) int {
	switch {
	case m.IsResp && m.Op == OpRead:
		return n.packetizedBytes(m.Length)
	case m.IsResp:
		return AckBytes
	case m.Op == OpRead:
		return ReadReqBytes
	case m.Op == OpAtomicFAA || m.Op == OpAtomicCAS:
		return WireHeaderBytes + 28
	default: // WRITE / SEND carry payload
		return n.packetizedBytes(m.Length)
	}
}

// packetizedBytes charges per-MTU header overhead for a payload.
func (n *NIC) packetizedBytes(payload int) int {
	pkts := (payload + n.prof.MTU - 1) / n.prof.MTU
	if pkts < 1 {
		pkts = 1
	}
	return payload + pkts*WireHeaderBytes
}

// dmaTransferTime is the PCIe occupancy of moving the given bytes.
func (n *NIC) dmaTransferTime(bytes int) sim.Duration {
	if bytes <= 0 {
		bytes = 16
	}
	// GB/s == bytes/ns; add a per-transaction TLP overhead.
	return sim.Duration(float64(bytes)/n.prof.PCIeGBps*float64(sim.Nanosecond)) + 8*sim.Nanosecond
}

// PostSend submits a WQE on a QP: it stages the entry and rings the
// doorbell over it in one call, so the entry dispatches synchronously here
// (behind any earlier staged-but-unexecuted entries) exactly as the
// pre-state-machine post path did. Completion (success or failure) arrives
// through the QP's completion callback. Callers that want post ≠ enable use
// StageSend + RingDoorbell instead. The NIC copies *wqe; the caller keeps
// ownership of it, and of the buffers it names.
func (n *NIC) PostSend(qpn uint32, wqe *WQE) error {
	qp, err := n.stageChecked(qpn, wqe)
	if err != nil {
		return err
	}
	n.encodeStaged(qp, len(qp.sq)-1)
	n.ringQP(qp, 1)
	return nil
}

// dispatchWQE launches one enabled wire WQE down the requester pipeline:
// doorbell, SQE fetch (inline payload rides along), requester PU, launch
// (see pending in pipeline.go). Every event it schedules is byte-identical
// to the pre-state-machine direct path (pinned by TestSQSeamByteIdentical).
func (n *NIC) dispatchWQE(qp *qpState, wqe *WQE) {
	n.counters.TxMsgs[wqe.Op]++
	n.counters.PerQPMsgs[qp.qpn]++
	p := n.getPending()
	p.qp, p.wqe, p.qpn, p.postTime = qp, *wqe, qp.qpn, n.eng.Now()
	p.fetch = 64
	p.inline = wqe.Op == OpWrite && wqe.Length <= n.prof.InlineMax
	if p.inline {
		p.fetch += wqe.Length
	}
	p.stage = pFetch
	n.eng.After(n.prof.DoorbellTime, p.fire)
}

// launch assigns the request its PSN and hands it to the requester egress
// ring (class 0: the logical Tx arbiter outranks the responder ring).
func (n *NIC) launch(p *pending) {
	qp := p.qp
	p.psn, p.lastSent = qp.nextPSN, n.eng.Now()
	qp.nextPSN = (qp.nextPSN + 1) & psnMask
	n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindPSNSend,
		Actor: n.psnActor, QPN: qp.qpn, PSN: p.psn, TC: int8(p.wqe.TC)})
	qp.outstanding = append(qp.outstanding, p)
	if !qp.rtxTimer.Pending() {
		n.armRetransmit(qp)
	}
	n.transmitRequest(p)
}

// transmitRequest transmits p's request, built from its WQE and PSN at each
// transmission, so a retransmission reads the poster's buffer again as the
// launch did.
func (n *NIC) transmitRequest(p *pending) {
	wqe := &p.wqe
	m := Message{
		Op: wqe.Op, SrcQPN: p.qpn, DstQPN: p.qp.peerQPN,
		RKey: wqe.RemoteKey, RemoteAddr: wqe.RemoteAddr, Length: wqe.Length,
		PSN: p.psn, TC: wqe.TC, CompareAdd: wqe.CompareAdd, Swap: wqe.Swap,
	}
	if wqe.Op == OpWrite || wqe.Op == OpSend {
		m.Data = wqe.LocalData
	}
	n.transmit(p.qp.peer, &m, 0)
}

// pfcXOFF is the ingress backlog (requests queued at the responder
// pipeline) past which a PFC pause event is recorded for the traffic class —
// the point at which a real lossless fabric would send PRIO pause frames.
const pfcXOFF = 32

// transmit serialises m through the egress arbiter onto the wire. ring 0
// is the requester (Tx arbiter), ring 1 the responder (Rx arbiter); strict
// priority between them is Key Finding 3. The envelope that will carry the
// message is the arbiter request (see envelope.granted). The message's
// frames are encoded here, reading the payload as the launch DMA does, so
// a retransmission reads the poster's buffer again and the buffer is never
// read once its WQE has completed; the frames are all the receiver gets.
func (n *NIC) transmit(dst *NIC, m *Message, ring int) {
	bytes := n.wireBytes(m)
	link := n.links[dst]
	service := max(n.prof.EgressArbTime, link.SerializationDelay(bytes))
	env := n.getEnv()
	env.src, env.dst, env.link = n, dst, link
	env.bytes, env.flow, env.ring = bytes, flowLabel(m.SrcQPN, m.DstQPN), ring
	env.srcQPN, env.psn, env.tc = m.SrcQPN, m.PSN, m.TC
	if err := env.encode(m, n.prof.MTU); err != nil {
		panic(fmt.Sprintf("nic %s: frame encode: %v", n.Name, err))
	}
	n.egress.SubmitMeta(service, sim.ReqMeta{Class: ring, Tenant: n.tenantOf(m.SrcQPN), Bytes: bytes}, env.fire)
}

// flowLabel derives the packet flow label from the QP pair. Requests and
// responses of one connection get distinct labels (the pair is reversed),
// which is fine: ECMP only needs each direction internally ordered. The
// multiplier spreads near-sequential QPNs; switches avalanche the label
// again before the port pick.
func flowLabel(srcQPN, dstQPN uint32) uint32 {
	return srcQPN*2654435761 + dstQPN
}

// Deliver is installed as the fabric sink, and is the only way a message
// enters a NIC: it decodes an arriving packet's frames into the message
// they carry, with the packet's TC, dispatches it to the destination NIC's
// ingress pipeline and then recycles the envelope; everything that must
// outlive the packet, the payload included, has been copied out of its
// frames by then. Envelopes lost in flight are simply collected by the GC.
func Deliver(p fabric.Packet) {
	env, ok := p.Payload.(*envelope)
	if !ok {
		panic("nic: foreign payload on fabric")
	}
	n := env.dst
	if p.Corrupt {
		// ICRC failure: the payload cannot be trusted, so the packet is
		// dropped before any parsing — the transport recovers it exactly
		// like an in-flight loss.
		n.putEnv(env)
		n.counters.RxCorrupt++
		n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRxCorrupt,
			Actor: n.rxActor, TC: int8(p.TC & 7), Val: uint64(p.Bytes)})
		return
	}
	var m Message
	if err := n.rx.decode(env.frames, &m); err != nil {
		panic("nic: undecodable frames: " + err.Error())
	}
	m.TC = p.TC
	n.counters.RxBytes += uint64(p.Bytes)
	n.counters.RxBytesTC[p.TC&7] += uint64(p.Bytes)
	n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRxPkt,
		Actor: n.rxActor, QPN: m.DstQPN, PSN: m.PSN, TC: int8(p.TC & 7),
		Val: uint64(p.Bytes)})
	if m.IsResp {
		n.handleResponse(&m, n.rx.segs)
	} else {
		n.handleRequest(&m, n.rx.segs)
	}
	n.putEnv(env)
}

// gather copies payload segments into buf, resized to their total length,
// and returns it.
func gather(buf []byte, segs [][]byte) []byte {
	size := 0
	for _, s := range segs {
		size += len(s)
	}
	buf = fit(buf, size)
	off := 0
	for _, s := range segs {
		off += copy(buf[off:], s)
	}
	return buf
}

// handleRequest accepts an inbound request and starts its execution (see
// respOp in pipeline.go). segs holds the payload segments the request's
// frames carry, if any; an executing WRITE or SEND copies them into a
// buffer the operation holds until it ends.
func (n *NIC) handleRequest(m *Message, segs [][]byte) {
	n.counters.RxMsgs[m.Op]++
	if n.rxPU.QueueLen()+n.tpuSrv.QueueLen() >= pfcXOFF {
		// Receive backlog beyond the XOFF threshold: a lossless fabric
		// would pause this priority now. Grain-I defenses key off this.
		n.counters.PFCPauses[m.TC&7]++
		n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindPFCPause,
			Actor: n.rxActor, TC: int8(m.TC & 7)})
	}
	// PSN sequencing (go-back-N responder). Requests on a connected QP must
	// arrive in PSN order: an in-order request advances the expected PSN, a
	// gap draws one NAK-seq per stall, and a duplicate (retransmission of an
	// executed request) is replayed without re-execution where the verb
	// demands it. On a lossless run every request takes the first arm.
	// Visible-effect ordering: requests accepted in PSN order take a
	// placement ticket; duplicates and unroutable frames run ungated (they
	// carry no new data, so nothing can be observed out of order).
	var gate *qpState
	var ticket uint64
	if qp := n.qps[m.DstQPN]; qp != nil {
		switch {
		case m.PSN == qp.epsn:
			qp.epsn = (qp.epsn + 1) & psnMask
			qp.nakArmed = false
			gate, ticket = qp, qp.placeNext
			qp.placeNext++
		case psnAfter(m.PSN, qp.epsn):
			// A gap: an earlier request was lost. NAK once per stall; later
			// out-of-order arrivals are silently discarded until the stream
			// recovers (IB sends a single NAK per syndrome).
			if !qp.nakArmed {
				qp.nakArmed = true
				n.counters.SeqNaks++
				op := n.getOp(m, rNak)
				op.qp = qp
				n.rxPU.Submit(n.prof.RxPUTime, 0, op.fire)
			}
			return
		default:
			// Neither in order nor ahead. At exactly half the PSN space the
			// circular order is undefined (psnAfter is false both ways), so
			// the frame is neither a future request nor a duplicate of an
			// executed one — treating it as a duplicate would let a forged
			// frame draw an ACK for a request the responder never executed.
			// Discard it, counted for the abuse monitors.
			if psnHalfAway(m.PSN, qp.epsn) {
				n.counters.RxBadPSN++
				return
			}
			n.counters.DupReqs++
			if n.replayDuplicate(qp, m) {
				return
			}
			// Duplicate READ: RC re-executes it from scratch through the
			// normal path below (idempotent; atomics never take this path).
		}
	}
	pkts := (m.Length + n.prof.MTU - 1) / n.prof.MTU
	if pkts < 1 {
		pkts = 1
	}
	op := n.getOp(m, rEnter)
	op.gate, op.ticket = gate, ticket
	if len(segs) > 0 {
		op.m.Data = gather(n.getPayload(), segs)
	}
	// Encryption profiles decrypt/authenticate the inbound payload on the
	// responder PU (for READs this is the outbound data being enciphered).
	op.service = n.prof.RxPUTime*sim.Duration(pkts) + n.encCharge(m.Length)
	// Isolation profiles gate responder-PU entry on the tenant's credit
	// pool. A copy of a request re-entering the pipeline while the
	// original still holds its admission (both name one QP and PSN) keeps
	// the original credit instead of taking a second one, so respond()'s
	// exactly-once release stays balanced under loss.
	if n.prof.ISO {
		key := isoKey(m)
		if _, held := n.isoHeld[key]; held {
			op.fire()
			return
		}
		n.isoHeld[key] = struct{}{}
	}
	n.isoAdmit(n.tenantOf(m.DstQPN), op.fire)
}

// respond sends a response back through the responder ring (class 1).
// data, when not nil, is the READ payload; transmit encodes it into the
// response's frames before respond returns.
func (n *NIC) respond(req *Message, st Status, data []byte, atomicOrig uint64) {
	// Release the tenant's ISO credit first, before the unroutable-request
	// early return below: every admitted request reaches respond() exactly
	// once, so this is the one release point.
	if n.prof.ISO {
		key := isoKey(req)
		if _, held := n.isoHeld[key]; held {
			delete(n.isoHeld, key)
			n.isoRelease(n.tenantOf(req.DstQPN))
		}
	}
	n.counters.Responses++
	if st != StatusOK {
		n.counters.NAKs++
	}
	// Find the requester in the context of the QP the request names: no
	// frame carries a source QPN.
	qp := n.qps[req.DstQPN]
	if qp == nil || qp.peer == nil {
		// Request targeted an unknown QP: we cannot route a NAK without a
		// reverse path; drop (matches RC behaviour of unroutable packets).
		return
	}
	resp := Message{
		Op: req.Op, SrcQPN: req.DstQPN, DstQPN: qp.peerQPN,
		IsResp: true, Status: st, TC: req.TC,
		PSN: req.PSN, AckPSN: req.PSN,
		Data: data, CompareAdd: atomicOrig,
	}
	if req.Op == OpRead && st == StatusOK {
		resp.Length = req.Length
	}
	n.transmit(qp.peer, &resp, 1)
}

// fit returns buf resized to n bytes, reallocated when its capacity is
// short.
func fit(buf []byte, n int) []byte {
	if buf == nil || cap(buf) < n {
		return make([]byte, n, max(n, 64))
	}
	return buf[:n]
}

// handleResponse finishes the pending WQE on the requester. The WQE is
// found in the go-back-N window of the QP the response names, by PSN; on a
// lossless QP it is the window's head. A response naming a QP that has no
// such WQE in flight completes nothing, so an ACK addressed to one QP can
// never complete another's WQE. The pending keeps the status, the result
// and, for a READ that lands (in LocalData or a LocalKey MR), a copy of the
// payload segments in its own buffer.
func (n *NIC) handleResponse(m *Message, segs [][]byte) {
	qp := n.qps[m.DstQPN]
	i := -1
	if qp != nil {
		i = slices.IndexFunc(qp.outstanding, func(p *pending) bool { return p.psn == m.PSN })
	}
	if i < 0 {
		if qp != nil && !psnAfter(qp.nextPSN, m.PSN) {
			// A PSN this QP has not launched: no responder echoes one, so
			// the response is forged. Completing a WQE takes the PSN of
			// one in flight, which means snooping the wire, not guessing
			// (the conformance suite pins this).
			n.counters.InvalidAcks++
			return
		}
		// A response for an already-completed WQE: the original and a
		// retransmission both drew an ACK. Coalesce — count it, deliver no
		// second CQE.
		n.counters.DupAcks++
		n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindDupAck,
			Actor: n.psnActor, QPN: m.DstQPN, PSN: m.PSN, TC: int8(m.TC & 7)})
		return
	}
	if m.Status == StatusSeqNak {
		// Transport NAK: the responder is missing earlier requests. Rewind
		// and retransmit; the WQE completes when a real ACK arrives.
		n.handleSeqNak(qp, m)
		return
	}
	p := qp.outstanding[i]
	qp.outstanding = slices.Delete(qp.outstanding, i, i+1)
	qp.progressEpoch++
	qp.retries = 0
	n.armRetransmit(qp)
	p.st, p.result = m.Status, m.CompareAdd
	if w := &p.wqe; w.Op == OpRead && (w.LocalData != nil || w.LocalKey != 0) && len(segs) > 0 {
		p.buf = gather(p.buf, segs)
		p.data = p.buf
	}
	// Encryption profiles decrypt an inbound READ payload on the requester's
	// responder PU before it can land in host memory.
	var encExtra sim.Duration
	if p.wqe.Op == OpRead && p.st == StatusOK {
		encExtra = n.encCharge(p.wqe.Length)
	}
	p.stage = pLand
	n.rxPU.Submit(n.prof.RxPUTime+encExtra, 0, p.fire)
}

// QPC exposes the ICM context cache (QP contexts, plus MR contexts when the
// profile prices MPT misses).
func (n *NIC) QPC() *ContextCache { return n.qpc }

// NoteCQOverrun records one completion dropped at a full CQ. The verbs
// layer calls it so the loss is visible in the adapter's ethtool-style
// counters, where exhaustion monitors look for it.
func (n *NIC) NoteCQOverrun() { n.counters.CQOverruns++ }

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
