package nic

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// RC go-back-N reliability: PSN tracking per QP, NAK-sequence-error
// generation on the responder, retransmit timeout with exponential backoff
// on the requester, and retry exhaustion surfacing as StatusRetryExcErr
// CQEs (the simulator's IBV_WC_RETRY_EXC_ERR) with the QP moving to the
// error state.
//
// The layer is timing-neutral on a lossless fabric: the retransmit timer is
// armed and cancelled but never fires, the PSN check always takes its
// in-order arm, and no extra packets or events are generated — which is what
// keeps the golden experiment renders byte-identical at loss 0.

// psnMask bounds the 24-bit packet sequence number space.
const psnMask = 1<<24 - 1

// psnAfter reports a > b in the circular 24-bit PSN order: a is "after" b
// exactly when (a-b) mod 2^24 lies in [1, 2^23), like IB PSN comparison.
// The relation is deliberately not total — at a distance of exactly 2^23
// (half the space) neither PSN is after the other, so psnAfter(a,b) and
// psnAfter(b,a) are both false. Callers must handle that unordered edge
// explicitly: the responder discards such frames (see handleRequest) rather
// than letting them fall into the duplicate arm, because "duplicate" implies
// "already executed" and a frame exactly half the space away never was —
// replay-ACKing it would forge a completion. TestPSNHalfSpaceConvention pins
// this convention.
func psnAfter(a, b uint32) bool {
	d := (a - b) & psnMask
	return d != 0 && d < 1<<23
}

// psnHalfAway reports that a sits at exactly half the PSN space from b —
// the unordered edge of psnAfter where neither direction is "after".
func psnHalfAway(a, b uint32) bool {
	return (a-b)&psnMask == 1<<23
}

// SetQPRetry overrides the retransmission parameters of one QP, mirroring
// ibv_modify_qp's timeout/retry_cnt. Zero values fall back to the NIC-wide
// defaults.
func (n *NIC) SetQPRetry(qpn uint32, timeout sim.Duration, limit int) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	qp.retryTimeout = timeout
	qp.retryLimit = limit
	return nil
}

// QPFailed reports whether a QP has moved to the error state (retry budget
// exhausted).
func (n *NIC) QPFailed(qpn uint32) bool {
	qp, ok := n.qps[qpn]
	return ok && qp.failed
}

// removeOutstanding unlinks one pending entry from the QP's transport window.
func (qp *qpState) removeOutstanding(p *pending) {
	for i, q := range qp.outstanding {
		if q == p {
			qp.outstanding = append(qp.outstanding[:i], qp.outstanding[i+1:]...)
			return
		}
	}
}

// retryParams resolves the QP's effective timeout base and retry limit.
func (n *NIC) retryParams(qp *qpState) (sim.Duration, int) {
	base := qp.retryTimeout
	if base <= 0 {
		base = n.RetryTimeout
	}
	limit := qp.retryLimit
	if limit <= 0 {
		limit = n.RetryLimit
	}
	return base, limit
}

// armRetransmit (re)arms the QP's retransmit timer: the previous timer is
// cancelled and, while requests are outstanding, a new one is scheduled when
// the OLDEST outstanding request will have aged a full timeout (base
// left-shifted by the consecutive-timeout count — exponential backoff) since
// it was last put on the wire. Aging the oldest entry rather than counting
// from "now" matters under pipelining: ACKs for younger requests must not
// keep pushing a lost request's retry into the future, or a deep QP starves
// its stalled slot for as long as the rest of the window makes progress.
// Cancelled events never fire and leave the event queue at once, so on a
// lossless run this is pure bookkeeping.
func (n *NIC) armRetransmit(qp *qpState) {
	qp.rtxTimer.Cancel()
	qp.rtxTimer = sim.Event{}
	if len(qp.outstanding) == 0 || qp.failed {
		return
	}
	base, _ := n.retryParams(qp)
	shift := qp.retries
	if shift > 16 {
		shift = 16 // cap the backoff, not the retry count
	}
	wait := qp.outstanding[0].lastSent.Add(base << uint(shift)).Sub(n.eng.Now())
	if wait < sim.Nanosecond {
		wait = sim.Nanosecond // already overdue: fire on the next tick
	}
	qp.rtxTimer = n.eng.After(wait, qp.rtxFire)
}

// onRetryTimeout fires when the oldest outstanding request has gone
// unacknowledged for a full (backed-off) timeout: go-back-N resends the
// whole window, or — past the retry limit — the QP fails and every
// outstanding WQE completes with StatusRetryExcErr.
func (n *NIC) onRetryTimeout(qp *qpState) {
	qp.rtxTimer = sim.Event{}
	if qp.failed || len(qp.outstanding) == 0 {
		return
	}
	_, limit := n.retryParams(qp)
	if qp.retries >= limit {
		n.failQP(qp)
		return
	}
	qp.retries++
	n.counters.Timeouts++
	n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRtxTimeout,
		Actor: n.psnActor, QPN: qp.qpn, Val: uint64(qp.retries), TC: -1})
	for _, p := range qp.outstanding {
		p.retransmits++
		n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRetransmit,
			Actor: n.psnActor, QPN: qp.qpn, PSN: p.psn, TC: int8(p.wqe.TC),
			Dur: int64(n.eng.Now().Sub(p.lastSent))})
		p.lastSent = n.eng.Now()
		n.counters.Retransmits++
		n.transmit(qp.peer, &p.msg, 0)
	}
	n.armRetransmit(qp)
}

// handleSeqNak is the requester side of a NAK-sequence-error: the responder
// named the last PSN it received in order, so every outstanding request
// after it is retransmitted immediately (fast recovery, no timeout wait).
// Only one rewind happens per stall — rewindEpoch pins the rewind to the
// current progressEpoch so a burst of stale NAKs cannot multiply the
// retransmissions — and the timer remains the backstop.
//
// The NAK is validated before it may consume the per-epoch rewind: a genuine
// NAK-seq names the last in-order PSN the responder received, so the head of
// the gap — (AckPSN+1) mod 2^24 — must be a PSN this requester still has
// outstanding. A NAK failing that check is dropped and counted (InvalidNaks)
// WITHOUT consuming the rewind epoch; without the check a forged NAK with a
// garbage AckPSN would burn the single rewind on a no-op resend and leave a
// later genuine NAK ignored, stretching recovery from one RTT to the full
// retransmit timeout (the NeVerMore NAK-spoofing amplifier).
func (n *NIC) handleSeqNak(qp *qpState, m *Message) {
	if qp.failed {
		return
	}
	head := (m.AckPSN + 1) & psnMask
	valid := false
	for _, p := range qp.outstanding {
		if p.psn == head {
			valid = true
			break
		}
	}
	if !valid {
		n.counters.InvalidNaks++
		return
	}
	if qp.rewindEpoch == qp.progressEpoch {
		return
	}
	qp.rewindEpoch = qp.progressEpoch
	qp.retries = 0 // the responder is alive: restart the backoff schedule
	if n.rec.Enabled() {
		resend := uint64(0)
		for _, p := range qp.outstanding {
			if psnAfter(p.psn, m.AckPSN) {
				resend++
			}
		}
		n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRewind,
			Actor: n.psnActor, QPN: qp.qpn, Aux: uint64(m.AckPSN), Val: resend, TC: -1})
	}
	for _, p := range qp.outstanding {
		if psnAfter(p.psn, m.AckPSN) {
			p.retransmits++
			n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRetransmit,
				Actor: n.psnActor, QPN: qp.qpn, PSN: p.psn, TC: int8(p.wqe.TC),
				Dur: int64(n.eng.Now().Sub(p.lastSent))})
			p.lastSent = n.eng.Now()
			n.counters.Retransmits++
			n.transmit(qp.peer, &p.msg, 0)
		}
	}
	n.armRetransmit(qp)
}

// failQP moves a QP to the error state: all outstanding WQEs flush with
// StatusRetryExcErr CQEs (in posting order, each through the CQE write DMA),
// and subsequent PostSends are rejected.
func (n *NIC) failQP(qp *qpState) {
	qp.failed = true
	n.counters.RetryExc++
	flush := qp.outstanding
	qp.outstanding = nil
	n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindRetryExc,
		Actor: n.psnActor, QPN: qp.qpn, Val: uint64(len(flush)), TC: -1})
	for _, p := range flush {
		delete(n.pend, p.seq)
		p.writeCQE(pFlushCQE)
	}
}

// respondNak sends a NAK-sequence-error for an out-of-order request. AckPSN
// carries the last in-order PSN so the requester knows where to rewind.
func (n *NIC) respondNak(req *Message, ackPSN uint32) {
	n.counters.Responses++
	n.counters.NAKs++
	n.rec.Emit(trace.Event{At: int64(n.eng.Now()), Kind: trace.KindNakSend,
		Actor: n.psnActor, QPN: req.DstQPN, PSN: req.PSN, Aux: uint64(ackPSN),
		TC: int8(req.TC & 7)})
	qp := n.qps[req.DstQPN]
	if qp == nil || qp.peer == nil {
		return
	}
	n.transmit(qp.peer, &Message{
		Op: req.Op, SrcQPN: req.DstQPN, DstQPN: req.SrcQPN,
		Seq: req.Seq, IsResp: true, Status: StatusSeqNak, TC: req.TC,
		PSN: req.PSN, AckPSN: ackPSN,
	}, 1)
}

// replayDuplicate handles a retransmitted request whose original was already
// executed. WRITE/SEND re-ACK without touching memory or the receive queue;
// atomics replay the recorded result (never execute twice). It returns false
// only for ops the responder may safely re-execute from scratch — READ,
// which is idempotent from the requester's point of view.
//
// A duplicate atomic whose one-deep replay record has been displaced by a
// newer atomic is NOT re-executable: atomics mutate memory, so running the
// FAA/CAS again would apply it twice (the latent double-apply this layer
// shipped with before the adversarial suite pinned it). Such a duplicate is
// handled by discarding it silently — the requester recovers through the
// original response still in flight or, failing that, the retransmit
// timeout, exactly as IB responders with an exhausted replay buffer behave.
func (n *NIC) replayDuplicate(qp *qpState, m *Message) bool {
	switch m.Op {
	case OpWrite, OpSend:
		n.rxPU.Submit(n.prof.RxPUTime, 0, n.getOp(m, rReplay).fire)
		return true
	case OpAtomicFAA, OpAtomicCAS:
		if qp.atomicReplayOK && qp.atomicReplayPSN == m.PSN {
			op := n.getOp(m, rReplay)
			op.val = qp.atomicReplayVal
			n.rxPU.Submit(n.prof.RxPUTime, 0, op.fire)
			return true
		}
		// Replay record displaced: drop the duplicate without a response —
		// re-execution would double-apply a non-idempotent op.
		return true
	default:
		return false
	}
}
