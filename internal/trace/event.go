// Package trace is the flight recorder for the simulated RNIC datapath: a
// lock-light, ring-buffered stream of typed events that the sim engine, NIC
// pipelines, fabric links and verbs layer emit as a run executes. Recording
// is strictly passive — no event changes virtual time, engine RNG state or
// model behaviour — so traced and untraced runs are byte-identical.
//
// Recorders are per shard: every parallel sweep cell owns its rig, its
// engine and its recorder, so the sweep engine stays deterministic and
// race-free without any locking on the emit path. A nil *Recorder is the
// disabled state; Emit on nil is a single branch with zero allocations,
// which is what keeps the NIC hot path free when tracing is off
// (benchmark-guarded in bench_test.go).
//
// The package sits below sim in the import graph, so timestamps and
// durations are raw picosecond int64s (the same unit as sim.Time /
// sim.Duration).
package trace

// Kind is the type of a recorded event. Every emit site in the datapath
// uses one of these; exporters derive the Chrome trace category, display
// name and phase from it.
type Kind uint8

// Event kinds, grouped by emitting layer.
const (
	// KindNone marks the zero Event; recorders never store it.
	KindNone Kind = iota

	// Sim engine markers.
	KindEngineRun  // Run/RunUntil entered; Val = pending events
	KindEngineHalt // Halt() called mid-run

	// Verbs layer.
	KindWQEPost // work request posted; QPN, Val = WRID
	KindWQESpan // post→completion span; QPN, Dur = latency, Val = WRID, Aux = status

	// NIC datapath.
	KindArbGrant  // egress arbiter granted a ring; TC, Val = wire bytes, Aux = ring (0 req, 1 resp)
	KindRxPkt     // message entered the ingress pipeline; TC, Val = wire bytes
	KindRxCorrupt // inbound packet discarded for corruption (ICRC)
	KindPFCPause  // ingress backlog crossed the XOFF threshold; TC
	KindCQE       // completion written; QPN, Dur = post→done latency, Aux = status

	// NIC go-back-N transport.
	KindPSNSend    // request put on the wire; QPN, PSN
	KindNakSend    // responder sent a NAK-sequence-error; QPN, PSN = offending, Aux = last in-order PSN
	KindRewind     // requester rewound after a NAK; QPN, Aux = ack PSN, Val = packets to resend
	KindRetransmit // one packet re-sent; QPN, PSN, Dur = stall since it was last on the wire
	KindRtxTimeout // retransmit timer expired; QPN, Val = consecutive timeouts
	KindDupAck     // duplicate ACK coalesced; QPN
	KindRetryExc   // retry budget exhausted, QP failed; QPN, Val = WQEs flushed

	// Fabric links.
	KindTCEnqueue   // packet joined a TC queue; TC, Val = bytes, Aux = queue depth after
	KindTCDequeue   // packet left its TC queue for the wire; TC, Val = bytes, Dur = queueing delay
	KindWireTx      // serialization finished; TC, Val = bytes, Dur = serialization time
	KindWireDrop    // FaultPlan dropped the packet in flight; TC, Val = bytes
	KindWireCorrupt // FaultPlan corrupted the packet in flight; TC, Val = bytes
	KindTailDrop    // egress TC queue full, packet tail-dropped; TC, Val = bytes

	// Receiver instrumentation.
	KindULISample // one ULI observation; Dur = inter-sample gap, Val = ULI ns (Float64bits)
	KindBWSample  // fluid-model bandwidth window (priority channel); Val = Gbps (Float64bits)
	KindSymbol    // covert sender switched symbol state; Val = bit value

	numKinds
)

// NumKinds is the number of defined event kinds (for metrics arrays).
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	KindNone:        "none",
	KindEngineRun:   "engine.run",
	KindEngineHalt:  "engine.halt",
	KindWQEPost:     "wqe.post",
	KindWQESpan:     "wqe",
	KindArbGrant:    "arb.grant",
	KindRxPkt:       "rx.pkt",
	KindRxCorrupt:   "rx.corrupt",
	KindPFCPause:    "pfc.pause",
	KindCQE:         "cqe",
	KindPSNSend:     "psn.send",
	KindNakSend:     "psn.nak",
	KindRewind:      "psn.rewind",
	KindRetransmit:  "psn.retransmit",
	KindRtxTimeout:  "psn.timeout",
	KindDupAck:      "psn.dupack",
	KindRetryExc:    "psn.retry_exc",
	KindTCEnqueue:   "tc.enq",
	KindTCDequeue:   "tc.deq",
	KindWireTx:      "wire.tx",
	KindWireDrop:    "wire.drop",
	KindWireCorrupt: "wire.corrupt",
	KindTailDrop:    "wire.taildrop",
	KindULISample:   "uli.sample",
	KindBWSample:    "bw",
	KindSymbol:      "symbol",
}

var kindCats = [numKinds]string{
	KindNone:        "none",
	KindEngineRun:   "engine",
	KindEngineHalt:  "engine",
	KindWQEPost:     "verbs",
	KindWQESpan:     "verbs",
	KindArbGrant:    "nic.arb",
	KindRxPkt:       "nic.rx",
	KindRxCorrupt:   "nic.rx",
	KindPFCPause:    "nic.rx",
	KindCQE:         "nic.cqe",
	KindPSNSend:     "nic.psn",
	KindNakSend:     "nic.psn",
	KindRewind:      "nic.psn",
	KindRetransmit:  "nic.psn",
	KindRtxTimeout:  "nic.psn",
	KindDupAck:      "nic.psn",
	KindRetryExc:    "nic.psn",
	KindTCEnqueue:   "fabric",
	KindTCDequeue:   "fabric",
	KindWireTx:      "fabric",
	KindWireDrop:    "fabric",
	KindWireCorrupt: "fabric",
	KindTailDrop:    "fabric",
	KindULISample:   "covert.rx",
	KindBWSample:    "covert.rx",
	KindSymbol:      "covert.tx",
}

// String returns the event's display name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Category returns the Chrome trace category for the kind.
func (k Kind) Category() string {
	if int(k) < len(kindCats) {
		return kindCats[k]
	}
	return "none"
}

// Span reports whether events of this kind carry a meaningful duration and
// export as Chrome complete ("X") events rather than instants.
func (k Kind) Span() bool {
	switch k {
	case KindWQESpan, KindCQE, KindTCDequeue, KindWireTx, KindRetransmit:
		return true
	}
	return false
}

// Counter reports whether the kind exports as a Chrome counter ("C") track.
func (k Kind) Counter() bool { return k == KindBWSample || k == KindULISample }

// Event is one recorded datapath occurrence. Fields beyond At and Kind are
// kind-specific (see the Kind constants); unused fields stay zero. The
// struct is plain data, copied by value into the ring — no pointers, so a
// full ring holds no live references into the model.
type Event struct {
	At    int64  // virtual time, picoseconds
	Dur   int64  // span length or delay, picoseconds (Span kinds)
	Val   uint64 // primary argument (bytes, WRID, Float64bits...)
	Aux   uint64 // secondary argument (ring, status, depth, ack PSN...)
	QPN   uint32 // queue pair, when applicable
	PSN   uint32 // 24-bit packet sequence number, when applicable
	Actor uint16 // emitting component, index into the recorder's actor table
	TC    int8   // traffic class, -1 when not applicable
	Kind  Kind
}
