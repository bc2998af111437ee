package nic

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/wire"
)

// The per-WQE datapath as pooled stage machines. Each in-flight operation
// is one recycled struct holding everything its stages need, plus a fire
// callback bound to it once, when the struct is first allocated. Every
// engine event and server request of the operation schedules that same
// fire; a small stage field says which step runs next, so the steady-state
// datapath allocates nothing per WQE for its control flow.
//
// Each stage makes its At/After/Submit/SubmitMeta calls at a fixed point
// of the pipeline, and the engine breaks timestamp ties by the order of
// those calls: moving a call to another stage, or reordering two calls
// inside one, changes the schedule and therefore every golden.
//
// Three kinds of operation run here:
//
//   - pending, on the requester: doorbell → SQE fetch → TxPU → payload DMA
//     → launch, then after the response RxPU → READ landing → CQE;
//   - respOp, on the responder, one per request execution: ISO admit → RxPU
//     → QPC/extra delay → TPU → DMA + PCIe latency → placement gate →
//     respond. A retransmitted READ can execute while the original still
//     is, so each execution works on its own copy of the request;
//   - envelope, on egress: the arbiter grant, the wire encoding and the
//     hand-off to the link; it then travels as the fabric payload and the
//     receiver recycles it after checking its frames.
//
// Ownership. Messages are values, so nothing is shared between the stages
// of a WQE or between the NICs of a rig: pending keeps its request for
// go-back-N, each envelope carries a copy, each respOp copies the request
// it executes, and responses are built on the stack and copied into their
// envelope. Request frames need no release rule, and a forged ACK arriving
// while the request still executes cannot disturb it. The one buffer that
// moves instead of being copied is a READ payload: the responder reads it
// into its rbuf, respond swaps that buffer into the response's envelope,
// and handleResponse swaps it into the pending WQE, each side keeping the
// buffer it gave up in exchange.
//
// A fire that completes an operation recycles it as its last step, after
// every callback it makes (a completion, a placement, a response) has
// returned.

// Requester stages of a pending WQE. Each names the step advance runs next.
const (
	pFetch     uint8 = iota // doorbell rung: fetch the SQE (inline payload rides along)
	pTxPU                   // SQE fetched: requester PU (plus AES on encryption profiles)
	pLaunch                 // requester PU done: payload DMA, or launch
	pDMA                    // DMA engine done: PCIe and memory latency, then p.then
	pLaunchNow              // payload in NIC memory: launch
	pLand                   // response through the responder PU: READ landing DMA, or CQE
	pLanded                 // READ payload in host memory: CQE
	pCQE                    // CQE written: deliver the completion
	pFlushCQE               // retry-exhausted flush CQE written
)

// pending is one requester WQE from doorbell to CQE. From launch until its
// response (or a retry-exhausted flush) it is also the go-back-N transport
// record: n.pend and the QP's outstanding window point at it.
type pending struct {
	n           *NIC
	qp          *qpState // dispatching QP; after a response, the QP looked up then (nil once destroyed)
	wqe         WQE      // copy of the posted WQE
	qpn         uint32
	postTime    sim.Time
	seq         uint64
	psn         uint32
	msg         Message  // the request, retained for retransmission
	lastSent    sim.Time // aging base for the retransmit timeout
	retransmits int

	stage  uint8
	then   uint8        // stage after a DMA's PCIe latency
	fetch  int          // SQE fetch bytes, inline payload included
	inline bool         // the payload rode the SQE fetch
	memLat sim.Duration // host memory latency of the DMA in progress
	st     Status       // response status, result and payload, kept for the CQE
	result uint64
	data   []byte // READ payload: nil, or buf resized to it
	buf    []byte // payload buffer owned by this pending, kept across reuse
	fire   func()
}

func (n *NIC) getPending() *pending {
	if k := len(n.pendFree) - 1; k >= 0 {
		p := n.pendFree[k]
		n.pendFree = n.pendFree[:k]
		return p
	}
	p := &pending{n: n}
	p.fire = p.advance
	return p
}

func (n *NIC) putPending(p *pending) {
	*p = pending{n: p.n, fire: p.fire, buf: p.buf}
	n.pendFree = append(n.pendFree, p)
}

// dma runs a host-memory DMA for p: the DMA engine is occupied for the
// transfer time, then the PCIe and memory latency elapses and p continues
// at then.
func (p *pending) dma(bytes int, then uint8) {
	n := p.n
	p.memLat = n.hst.MemAccessLatency(nil, n.numa)
	p.stage, p.then = pDMA, then
	n.hostDMA.Submit(n.dmaTransferTime(bytes), 0, p.fire)
}

// writeCQE submits the CQE write DMA; stage is the delivery step after it.
func (p *pending) writeCQE(stage uint8) {
	n := p.n
	p.stage = stage
	n.hostDMA.Submit(n.dmaTransferTime(32)+n.prof.CQEWriteTime, 0, p.fire)
}

func (p *pending) advance() {
	n, wqe := p.n, &p.wqe
	switch p.stage {
	case pFetch:
		p.stage = pTxPU
		n.hostDMA.Submit(n.dmaTransferTime(p.fetch)+n.prof.SQEFetchTime, 0, p.fire)
	case pTxPU:
		// Encryption profiles pay the AES cost on the requester PU: the
		// payload (or the header MAC for payload-less verbs) is enciphered
		// before the message can launch.
		p.stage = pLaunch
		n.txPU.Submit(n.prof.TxPUTime+n.encCharge(wqe.Length), 0, p.fire)
	case pLaunch:
		if wqe.Op == OpWrite && !p.inline || wqe.Op == OpSend && wqe.Length > n.prof.InlineMax {
			p.dma(wqe.Length, pLaunchNow)
			return
		}
		n.launch(p)
	case pDMA:
		p.stage = p.then
		n.eng.After(n.prof.PCIeLatency+p.memLat, p.fire)
	case pLaunchNow:
		n.launch(p)
	case pLand:
		if wqe.Op == OpRead && p.st == StatusOK {
			// DMA the read payload into the host buffer. A READ with a
			// LocalKey also lands in the named local MR — and may patch a
			// registered SQ window there — strictly before its CQE fires, so
			// a WAIT ordered behind this read observes the patch.
			p.dma(wqe.Length, pLanded)
			return
		}
		p.writeCQE(pCQE)
	case pLanded:
		if wqe.LocalData != nil && p.data != nil {
			copy(wqe.LocalData, p.data)
		}
		if wqe.LocalKey != 0 && p.data != nil {
			n.landLocal(wqe, p.data)
		}
		p.writeCQE(pCQE)
	case pCQE:
		if qp := p.qp; qp != nil {
			n.deliverCQE(qp, wqe.TC, Completion{
				QPN: p.qpn, WRID: wqe.WRID, Op: wqe.Op,
				Status: p.st, Bytes: wqe.Length, Result: p.result,
				PostTime: p.postTime, DoneTime: n.eng.Now(),
			})
		}
		n.putPending(p)
	case pFlushCQE:
		n.deliverCQE(p.qp, wqe.TC, Completion{
			QPN: p.qpn, WRID: wqe.WRID, Op: wqe.Op,
			Status: StatusRetryExcErr, Bytes: wqe.Length,
			PostTime: p.postTime, DoneTime: n.eng.Now(),
		})
		n.putPending(p)
	}
}

// deliverCQE delivers one completion on qp. Every CQE the NIC produces
// passes here — a wire WQE's, a management WQE's (sq.go) and a retry flush —
// so each lands once in the trace, the completion digest, the QP's callback
// and the CQ counter, in that order.
func (n *NIC) deliverCQE(qp *qpState, tc int, c Completion) {
	qp.completed++
	n.rec.Emit(trace.Event{At: int64(c.DoneTime), Kind: trace.KindCQE,
		Actor: n.cqeActor, QPN: c.QPN, TC: int8(tc),
		Dur: int64(c.DoneTime.Sub(c.PostTime)), Aux: uint64(c.Status)})
	n.cqeDigest = foldCQE(n.cqeDigest, &c)
	if qp.onComplete != nil {
		qp.onComplete(c)
	}
	n.cqeDelivered(qp)
}

// cqeDigestBasis starts every NIC's completion digest (the FNV-1a offset
// basis).
const cqeDigestBasis = 0xcbf29ce484222325

// foldCQE mixes one completion into a running digest: its done time in
// picoseconds, QPN, WRID and status.
func foldCQE(h uint64, c *Completion) uint64 {
	for _, v := range [...]uint64{uint64(c.DoneTime), uint64(c.QPN), c.WRID, uint64(c.Status)} {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 32
	}
	return h
}

// CompletionDigest is a running 64-bit hash of every CQE this NIC has
// delivered: done time in picoseconds, QPN, WRID and status, in delivery
// order. Two runs with equal digests completed the same work requests at
// the same instants, which goldens printed at 0.1 ns cannot show. It is
// kept outside Counters so counter snapshots and their hashes stay as they
// are.
func (n *NIC) CompletionDigest() uint64 { return n.cqeDigest }

// Responder stages of a request execution. The stages from rNak on are
// terminal: they run the request's visible effect and end the operation.
const (
	rEnter  uint8 = iota // ISO credit held (or none needed): enter the responder PU
	rCtx                 // responder PU done: QPC lookup and defense delay
	rExec                // delay elapsed: execute against the QP
	rTPU                 // address translation done: move the data
	rAtomic              // atomic ALU delay elapsed: DMA the operand
	rDMA                 // DMA engine done: PCIe and memory latency, then the gate
	rGate                // data moved: wait for the placement gate, then op.then

	rNak     // NAK-seq for a PSN gap
	rReplay  // duplicate WRITE/SEND re-ACK or atomic replay
	rBadQP   // request for a QPN this NIC never created
	rAccess  // REMOTE_ACCESS_ERROR
	rSend    // land a SEND in the receive queue
	rWrite   // place WRITE data
	rRead    // read the payload for the response
	rAtomicX // execute the atomic
)

// respOp is one execution of an inbound request on the responder.
type respOp struct {
	n       *NIC
	m       Message  // copy of the request
	qp      *qpState // QP the request executes on (the NAK's QP for rNak)
	gate    *qpState // placement gate, nil for ungated requests
	ticket  uint64
	service sim.Duration // responder PU time
	mr      *MRInfo
	offset  uint64
	memLat  sim.Duration
	val     uint64 // replayed atomic result
	stage   uint8
	then    uint8 // effect behind the placement gate
	fire    func()
}

func (n *NIC) getOp(m *Message, stage uint8) *respOp {
	var op *respOp
	if k := len(n.opFree) - 1; k >= 0 {
		op = n.opFree[k]
		n.opFree = n.opFree[:k]
	} else {
		op = &respOp{n: n}
		op.fire = op.advance
	}
	op.m, op.stage = *m, stage
	return op
}

func (n *NIC) putOp(op *respOp) {
	*op = respOp{n: op.n, fire: op.fire}
	n.opFree = append(n.opFree, op)
}

// dma runs a host-memory DMA against reg, then passes the placement gate
// into the effect then.
func (op *respOp) dma(bytes int, reg *host.Region, then uint8) {
	n := op.n
	op.memLat = n.hst.MemAccessLatency(reg, n.numa)
	op.stage, op.then = rDMA, then
	n.hostDMA.Submit(n.dmaTransferTime(bytes), 0, op.fire)
}

// place runs the effect once every request accepted on the gate's QP
// before this one has run its own; ungated requests run it at once.
func (op *respOp) place(effect uint8) {
	op.stage = effect
	if op.gate == nil {
		op.fire()
		return
	}
	op.gate.place(op.ticket, op.fire)
}

func (op *respOp) advance() {
	if op.step() {
		op.n.putOp(op)
	}
}

// step runs op's current stage and reports whether the operation ended.
func (op *respOp) step() bool {
	n, m := op.n, &op.m
	switch op.stage {
	case rEnter:
		op.stage = rCtx
		n.rxPU.Submit(op.service, 0, op.fire)
	case rCtx:
		// QPC lookup: a cold QP context costs an ICM fetch.
		extra := sim.Duration(0)
		if !n.qpc.Access(QPCtxKey(m.DstQPN)) {
			extra = n.prof.QPCMissPenalty
		}
		op.qp = n.qps[m.DstQPN]
		op.stage = rExec
		if op.qp == nil {
			// Unknown QPN: the tell-tale of a QP-number-guessing sweep.
			// Benign traffic never produces one (connections are wired
			// before traffic flows), so the counter is a pure abuse marker.
			n.counters.RxBadQP++
			op.stage = rBadQP
		}
		n.eng.After(extra, op.fire)
	case rExec:
		switch m.Op {
		case OpSend:
			// The recv delivery waits behind the placement gate: a SEND
			// used as a commit record must never be observed before the
			// data of writes accepted ahead of it.
			op.dma(m.Length, nil, rSend)
		case OpWrite, OpRead, OpAtomicFAA, OpAtomicCAS:
			n.oneSided(op)
		default:
			op.place(rAccess)
		}
	case rTPU:
		switch m.Op {
		case OpWrite:
			op.dma(m.Length, op.mr.Region, rWrite)
		case OpRead:
			op.dma(m.Length, op.mr.Region, rRead)
		default:
			op.stage = rAtomic
			n.eng.After(n.prof.AtomicExtra, op.fire)
		}
	case rAtomic:
		op.dma(8, op.mr.Region, rAtomicX)
	case rDMA:
		op.stage = rGate
		n.eng.After(n.prof.PCIeLatency+op.memLat, op.fire)
	case rGate:
		op.place(op.then)
	default:
		n.execEffect(op)
		return true
	}
	return false
}

// oneSided checks a WRITE/READ/ATOMIC against its registered MR and starts
// its address translation through the TPU pipeline.
func (n *NIC) oneSided(op *respOp) {
	m := &op.m
	mr := n.mrs[m.RKey]
	if mr == nil || m.RemoteAddr < mr.Base || m.RemoteAddr+uint64(max(m.Length, 1)) > mr.Base+mr.Size {
		op.place(rAccess)
		return
	}
	switch m.Op {
	case OpRead:
		if !mr.RemoteRead {
			op.place(rAccess)
			return
		}
	case OpWrite:
		if !mr.RemoteWrite {
			op.place(rAccess)
			return
		}
	default:
		if !mr.Atomic {
			op.place(rAccess)
			return
		}
	}
	op.mr, op.offset = mr, m.RemoteAddr-mr.Base
	n.counters.PerMRBytes[mr.Key] += uint64(m.Length)
	tpuTime := n.tpu.Translate(Request{
		MRKey: mr.Key, Offset: op.offset, Length: m.Length,
		MRBase: mr.Base, PageSize: mr.PageSize,
	})
	// MPT lookup: when the profile prices MR contexts, a cold one costs an
	// ICM fetch serialised through the TPU pipeline — so under context
	// thrash every tenant queues behind the aggressor's fetches. Profiles
	// with MPTMissPenalty 0 skip the lookup entirely (no occupancy, no
	// counters), keeping the legacy timing surface untouched.
	if n.prof.MPTMissPenalty > 0 && !n.qpc.Access(MRCtxKey(mr.Key)) {
		tpuTime += n.prof.MPTMissPenalty
	}
	op.stage = rTPU
	n.tpuSrv.Submit(tpuTime, 0, op.fire)
}

// execEffect runs a request's visible effect: memory placement, recv
// delivery and the response.
func (n *NIC) execEffect(op *respOp) {
	m, qp, mr := &op.m, op.qp, op.mr
	switch op.stage {
	case rNak:
		n.respondNak(m, (qp.epsn-1)&psnMask)
	case rReplay:
		n.respond(m, StatusOK, nil, op.val)
	case rBadQP:
		n.respond(m, StatusBadQP, nil, 0)
	case rAccess:
		n.respond(m, StatusRemoteAccessError, nil, 0)
	case rSend:
		var buf []byte
		if len(qp.recvQueue) > 0 {
			buf = qp.recvQueue[0]
			qp.recvQueue = qp.recvQueue[1:]
			copy(buf, m.Data)
		}
		if qp.onRecv != nil {
			qp.onRecv(RecvEvent{QPN: qp.qpn, Op: OpSend, Bytes: m.Length, Data: m.Data, SrcQPN: m.SrcQPN})
		}
		n.respond(m, StatusOK, nil, 0)
	case rWrite:
		if mr.Region != nil && m.Data != nil {
			wrote := min(len(m.Data), m.Length)
			if err := mr.Region.WriteAt(op.offset, m.Data[:wrote]); err != nil {
				n.respond(m, StatusRemoteAccessError, nil, 0)
				return
			}
			// A write landing over a registered SQ window rewrites the
			// staged WQEs it covers (RedN self-modification).
			if len(n.sqWins) > 0 {
				n.sqPatch(m.RemoteAddr, wrote)
			}
		}
		if qp.onRecv != nil {
			qp.onRecv(RecvEvent{QPN: qp.qpn, Op: OpWrite, Bytes: m.Length, SrcQPN: m.SrcQPN})
		}
		n.respond(m, StatusOK, nil, 0)
	case rRead:
		var data []byte
		if mr.Region != nil {
			n.rbuf = fit(n.rbuf, m.Length)
			data = n.rbuf
			if err := mr.Region.ReadAt(op.offset, data); err != nil {
				n.respond(m, StatusRemoteAccessError, nil, 0)
				return
			}
		}
		n.respond(m, StatusOK, data, 0)
	case rAtomicX:
		var orig uint64
		if mr.Region != nil && op.offset+8 <= mr.Size {
			var b [8]byte
			if err := mr.Region.ReadAt(op.offset, b[:]); err != nil {
				// The MR was deregistered while the atomic was in flight.
				n.respond(m, StatusRemoteAccessError, nil, 0)
				return
			}
			orig = le64(b[:])
			var newVal uint64
			if m.Op == OpAtomicFAA {
				newVal = orig + m.CompareAdd
			} else if orig == m.CompareAdd {
				newVal = m.Swap
			} else {
				newVal = orig
			}
			put64(b[:], newVal)
			mr.Region.WriteAt(op.offset, b[:])
		}
		// Record the result for duplicate replay: a retransmitted atomic
		// must not execute twice (the IB responder keeps a one-deep atomic
		// replay buffer).
		qp.atomicReplayOK = true
		qp.atomicReplayPSN = m.PSN
		qp.atomicReplayVal = orig
		n.respond(m, StatusOK, nil, orig)
	}
}

// envelope routes a fabric packet to the destination NIC. On egress it is
// also the arbiter request: transmit fills in what the grant needs and
// submits fire. When wire fidelity is on it carries the message's real
// RoCEv2 encoding, which the receiver parses and cross-checks before it
// recycles the envelope, frame and payload buffers included, onto its own
// free list.
type envelope struct {
	src   *NIC // transmitting NIC
	dst   *NIC
	msg   Message
	link  *fabric.Link // nil: loopback (single-NIC tests)
	bytes int          // wire bytes
	flow  uint32
	ring  int
	frameBuf
	// payload is a buffer the envelope owns. When owns is set, msg.Data
	// is payload and the receiver may take the buffer instead of copying.
	payload []byte
	owns    bool
	fire    func()
}

func (n *NIC) getEnv() *envelope {
	if k := len(n.envFree) - 1; k >= 0 {
		env := n.envFree[k]
		n.envFree = n.envFree[:k]
		return env
	}
	env := new(envelope)
	env.fire = env.granted
	return env
}

// putEnv recycles an envelope, keeping its frame buffers for reuse. A forged
// envelope (see ForgePacket) arrives without a fire callback and gets one
// here.
func (n *NIC) putEnv(env *envelope) {
	env.reset()
	fb, payload, fire := env.frameBuf, env.payload, env.fire
	if fire == nil {
		fire = env.granted
	}
	*env = envelope{frameBuf: fb, payload: payload, fire: fire}
	n.envFree = append(n.envFree, env)
}

// granted runs when the egress arbiter has serialised the envelope's
// message: it accounts the bytes, encodes the frames and puts the packet on
// the link.
func (env *envelope) granted() {
	n, dst, m, link := env.src, env.dst, &env.msg, env.link
	n.counters.TxBytes += uint64(env.bytes)
	n.counters.TxBytesTC[m.TC&7] += uint64(env.bytes)
	n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindArbGrant,
		Actor: n.arbActor, QPN: m.SrcQPN, PSN: m.PSN, TC: int8(m.TC & 7),
		Val: uint64(env.bytes), Aux: uint64(env.ring)})
	if link == nil {
		// Loopback fallback for single-NIC tests.
		n.eng.After(sim.Nanosecond, func() { Deliver(fabric.Packet{Payload: env}) })
		return
	}
	// Every message goes out in its real RoCEv2 transport encoding, parsed
	// and verified again on ingress.
	if err := env.encode(m, n.prof.MTU); err != nil {
		panic(fmt.Sprintf("nic %s: frame encode: %v", n.Name, err))
	}
	if n.Tap != nil {
		for _, f := range env.frames {
			n.Tap(n.eng.Now(), wire.Encapsulate(f, n.ip, dst.ip, 49152+uint16(m.SrcQPN&0x3fff)))
		}
	}
	if err := link.Send(fabric.Packet{TC: m.TC, Bytes: env.bytes, Dst: dst.addr, Flow: env.flow, Payload: env}); err != nil {
		// Tail drop at the egress queue: the packet never reaches the
		// wire. The RC transport recovers it — a lost request draws a
		// NAK-seq or a retransmit timeout, a lost response a duplicate
		// request — and the link's per-TC drop counter (surfaced through
		// Counters().WireDropsTC) records the loss for Grain-I monitors.
		n.putEnv(env)
	}
}
