package nic

// Send-queue state machine: the RedN WAIT/ENABLE surface.
//
// A QP's send queue is an explicit staged ring with a doorbell cursor.
// Posting (staging) a WQE and enabling it are separate steps: the NIC
// executes from the SQ head and advances only past enabled entries. The
// legacy PostSend stages and rings in one call, so every pre-existing
// workload dispatches each WQE synchronously inside PostSend exactly as
// before — the refactor is invisible until a caller splits the two steps
// (pinned by TestPostVsStageRingByteIdentical and the sqseam_cx5 golden).
//
// On top of the ring sit the two management opcodes RedN builds chains
// from ("RDMA is Turing complete", PAPERS.md):
//
//   - OpWait blocks the SQ head until a CQ's consumer counter reaches a
//     threshold. The counter is the cross-QP coupling point: QP A can wait
//     on QP B's completions, which is how dependent chains sequence without
//     host involvement.
//   - OpEnable advances another QP's doorbell by n entries (0 = all staged),
//     triggering that QP's own head advance.
//
// Both are management WQEs: they occupy the doorbell/SQE-fetch/requester-PU
// pipeline like any post and retire with a local CQE, but never touch the
// wire. Self-modification closes the loop: an RDMA WRITE (or a READ payload
// landing via LocalKey) that covers a registered SQ window rewrites the
// fields of staged-but-not-yet-enabled WQEs before the doorbell reaches
// them, which is what makes the chains data-dependent.

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
)

// CQCounter is a CQ consumer index: it counts completions delivered on the
// CQs it is bound to, and wakes send queues whose head WAIT is armed on it.
// The verbs layer creates one per CQ and binds it to the CQ's QPs.
type CQCounter struct {
	count   uint64
	waiters []sqWaiter
}

type sqWaiter struct {
	n  *NIC
	qp *qpState
}

// NewCQCounter allocates a consumer counter.
func NewCQCounter() *CQCounter { return &CQCounter{} }

// Count returns the number of completions delivered so far.
func (c *CQCounter) Count() uint64 {
	if c == nil {
		return 0
	}
	return c.count
}

// bump records one delivered completion and re-evaluates every send queue
// whose head WAIT is armed on this counter. A woken queue re-arms itself if
// the threshold is still ahead.
func (c *CQCounter) bump() {
	c.count++
	if len(c.waiters) == 0 {
		return
	}
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.qp.sqArmed = false
		w.n.counters.WaitWakes++
		w.n.advanceSQ(w.qp)
	}
}

// BindQPCounter attaches a CQ consumer counter to a QP: every completion
// delivered on the QP bumps it. The verbs layer calls this right after
// CreateQP so WAIT WQEs can observe the CQ's consumer index.
func (n *NIC) BindQPCounter(qpn uint32, c *CQCounter) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	qp.cqc = c
	return nil
}

// cqeDelivered is the single post-CQE hook: every path that delivers a
// completion on a QP (wire response, management retire, error flush) calls
// it after onComplete so armed WAITs observe a consistent consumer index.
func (n *NIC) cqeDelivered(qp *qpState) {
	if qp.cqc != nil {
		qp.cqc.bump()
	}
}

// StageSend validates and stages a copy of a WQE on the QP's send queue
// without ringing the doorbell: the entry sits not-yet-enabled (rewritable
// through a registered SQ window) until RingDoorbell or a peer's ENABLE
// covers it.
func (n *NIC) StageSend(qpn uint32, wqe *WQE) error {
	qp, err := n.stageChecked(qpn, wqe)
	if err != nil {
		return err
	}
	n.encodeStaged(qp, len(qp.sq)-1)
	return nil
}

// stageChecked runs PostSend's admission checks and appends the WQE to the
// staged ring.
func (n *NIC) stageChecked(qpn uint32, wqe *WQE) (*qpState, error) {
	qp, ok := n.qps[qpn]
	if !ok {
		return nil, fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	if qp.peer == nil && wqe.Op != OpWait && wqe.Op != OpEnable {
		return nil, fmt.Errorf("nic %s: QP %d not connected", n.Name, qpn)
	}
	if qp.failed {
		return nil, fmt.Errorf("nic %s: QP %d in error state (retry exhausted)", n.Name, qpn)
	}
	if wqe.TC < 0 || wqe.TC >= fabric.NumTCs {
		return nil, fmt.Errorf("nic %s: invalid TC %d", n.Name, wqe.TC)
	}
	qp.sq = append(qp.sq, *wqe)
	return qp, nil
}

// RingDoorbell advances a QP's doorbell cursor by k entries (k <= 0 enables
// everything staged) and lets the send queue advance. The cursor never
// exceeds the staged count.
func (n *NIC) RingDoorbell(qpn uint32, k int) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	n.ringQP(qp, k)
	return nil
}

func (n *NIC) ringQP(qp *qpState, k int) {
	if k <= 0 {
		k = len(qp.sq) - qp.sqEnabled
	}
	qp.sqEnabled += k
	if qp.sqEnabled > len(qp.sq) {
		qp.sqEnabled = len(qp.sq)
	}
	n.advanceSQ(qp)
}

// SQDepth reports a QP's staged and enabled entry counts (enabled never
// exceeds staged — the fuzz harness pins this invariant).
func (n *NIC) SQDepth(qpn uint32) (staged, enabled int) {
	qp := n.qps[qpn]
	if qp == nil {
		return 0, 0
	}
	return len(qp.sq), qp.sqEnabled
}

// advanceSQ executes staged entries from the head while the doorbell covers
// them. A WAIT whose threshold is ahead arms the queue on the counter and
// stops the advance; the counter's bump re-enters here. Once the ring fully
// drains the indices reset, so a long-lived QP's slice never grows without
// bound and SQ-window slot 0 maps to the next staged entry again.
func (n *NIC) advanceSQ(qp *qpState) {
	if qp.sqArmed {
		return
	}
	for qp.sqHead < qp.sqEnabled {
		wqe := &qp.sq[qp.sqHead]
		switch wqe.Op {
		case OpWait:
			if wqe.WaitCQ != nil && wqe.WaitCQ.count < wqe.WaitThresh {
				qp.sqArmed = true
				wqe.WaitCQ.waiters = append(wqe.WaitCQ.waiters, sqWaiter{n: n, qp: qp})
				return
			}
			qp.sqHead++
			n.counters.WaitWQEs++
			n.execManagement(qp, wqe)
		case OpEnable:
			qp.sqHead++
			n.counters.EnableWQEs++
			n.execManagement(qp, wqe)
		default:
			qp.sqHead++
			if qp.failed {
				n.flushStaged(qp, wqe)
				continue
			}
			n.dispatchWQE(qp, wqe)
		}
	}
	if qp.sqHead == len(qp.sq) && qp.sqHead > 0 {
		qp.sq = qp.sq[:0]
		qp.sqHead, qp.sqEnabled = 0, 0
	}
}

// execManagement runs a WAIT (already satisfied) or ENABLE through the
// local management pipeline: doorbell, SQE fetch, requester PU, then the
// action and a CQE — the same stages a real post pays, minus the wire. The
// stages capture a copy of the entry: its ring slot is reused once the ring
// drains.
func (n *NIC) execManagement(qp *qpState, entry *WQE) {
	post := n.eng.Now()
	wqe := *entry
	n.eng.After(n.prof.DoorbellTime, func() {
		n.hostDMA.Submit(n.dmaTransferTime(64)+n.prof.SQEFetchTime, func() {
			n.txPU.Submit(n.prof.TxPUTime, func() {
				if wqe.Op == OpEnable {
					if tgt := n.qps[wqe.TargetQPN]; tgt != nil {
						n.ringQP(tgt, wqe.EnableCount)
					}
				}
				n.hostDMA.Submit(n.dmaTransferTime(32)+n.prof.CQEWriteTime, func() {
					n.deliverCQE(qp, wqe.TC, Completion{
						QPN: qp.qpn, WRID: wqe.WRID, Op: wqe.Op,
						Status: StatusOK, PostTime: post, DoneTime: n.eng.Now(),
					})
				})
			})
		})
	})
}

// flushStaged retires a staged entry on a failed QP with an error CQE (the
// entry was admitted before the retry budget ran out; ibv flushes the rest
// of the queue with IBV_WC_WR_FLUSH_ERR — we reuse the retry status).
func (n *NIC) flushStaged(qp *qpState, entry *WQE) {
	post := n.eng.Now()
	wqe := *entry
	n.hostDMA.Submit(n.dmaTransferTime(32)+n.prof.CQEWriteTime, func() {
		n.deliverCQE(qp, wqe.TC, Completion{
			QPN: qp.qpn, WRID: wqe.WRID, Op: wqe.Op,
			Status: StatusRetryExcErr, Bytes: wqe.Length,
			PostTime: post, DoneTime: n.eng.Now(),
		})
	})
}

// --- SQ windows: WQE self-modification ---

// SQSlotBytes is the in-memory footprint of one staged WQE inside a
// registered SQ window, matching a real SQE stride.
const SQSlotBytes = 64

// Field offsets inside a slot (little-endian):
//
//	[ 0: 4) opcode      [ 4: 8) length      [ 8:16) remote addr
//	[16:20) rkey        [20:24) target QPN  [24:32) compare/add
//	[32:40) swap        [40:48) wait thresh [48:52) enable count
//
// Host-side references (WRID, local buffers, the wait counter binding) are
// not encoded — a remote write can redirect an entry, not forge new local
// privileges. The offsets are exported: the rednlite assembler computes
// patch targets from them (e.g. a pointer-chase read lands a remote address
// straight into the next hop's SQOffRemoteAddr field).
const (
	SQOffOpcode     = 0
	SQOffLength     = 4
	SQOffRemoteAddr = 8
	SQOffRKey       = 16
	SQOffTargetQPN  = 20
	SQOffCompareAdd = 24
	SQOffSwap       = 32
	SQOffWaitThresh = 40
	SQOffEnableCnt  = 48
)

// sqWindow maps a registered MR range onto a QP's staged ring: slot i of
// the window shadows qp.sq[i].
type sqWindow struct {
	qp    *qpState
	mr    *MRInfo
	base  uint64
	slots int
}

// RegisterSQWindow exposes a QP's send queue through a registered MR: slot i
// ([base+64i, base+64(i+1))) shadows staged entry i. Writes landing in the
// window rewrite not-yet-enabled entries; staged entries are encoded into
// the window so partial overwrites compose with the staged fields.
func (n *NIC) RegisterSQWindow(qpn uint32, mrKey uint32, base uint64, slots int) error {
	qp, ok := n.qps[qpn]
	if !ok {
		return fmt.Errorf("nic %s: unknown QP %d", n.Name, qpn)
	}
	mr := n.mrs[mrKey]
	if mr == nil {
		return fmt.Errorf("nic %s: unknown MR key %d", n.Name, mrKey)
	}
	if slots <= 0 || base < mr.Base || base+uint64(slots)*SQSlotBytes > mr.Base+mr.Size {
		return fmt.Errorf("nic %s: SQ window [%d,+%d slots) outside MR %d", n.Name, base, slots, mrKey)
	}
	n.sqWins = append(n.sqWins, sqWindow{qp: qp, mr: mr, base: base, slots: slots})
	return nil
}

// encodeStaged mirrors a freshly staged WQE into every window shadowing the
// QP, so later partial writes (one field) compose with the staged values.
func (n *NIC) encodeStaged(qp *qpState, idx int) {
	if len(n.sqWins) == 0 {
		return
	}
	var slot [SQSlotBytes]byte
	for i := range n.sqWins {
		w := &n.sqWins[i]
		if w.qp != qp || idx >= w.slots || w.mr.Region == nil {
			continue
		}
		wqe := &qp.sq[idx]
		put32(slot[SQOffOpcode:], uint32(wqe.Op))
		put32(slot[SQOffLength:], uint32(wqe.Length))
		put64(slot[SQOffRemoteAddr:SQOffRemoteAddr+8], wqe.RemoteAddr)
		put32(slot[SQOffRKey:], wqe.RemoteKey)
		put32(slot[SQOffTargetQPN:], wqe.TargetQPN)
		put64(slot[SQOffCompareAdd:SQOffCompareAdd+8], wqe.CompareAdd)
		put64(slot[SQOffSwap:SQOffSwap+8], wqe.Swap)
		put64(slot[SQOffWaitThresh:SQOffWaitThresh+8], wqe.WaitThresh)
		put32(slot[SQOffEnableCnt:], uint32(wqe.EnableCount))
		w.mr.Region.WriteAt(w.base-w.mr.Base+uint64(idx)*SQSlotBytes, slot[:])
	}
}

// sqPatch re-decodes every not-yet-enabled staged WQE whose window slot
// overlaps a write that just landed at [addr, addr+length). Callers gate on
// len(n.sqWins) > 0, so legacy datapaths never reach here.
func (n *NIC) sqPatch(addr uint64, length int) {
	if length <= 0 {
		return
	}
	end := addr + uint64(length)
	var slot [SQSlotBytes]byte
	for i := range n.sqWins {
		w := &n.sqWins[i]
		wend := w.base + uint64(w.slots)*SQSlotBytes
		if end <= w.base || addr >= wend || w.mr.Region == nil {
			continue
		}
		lo := int(0)
		if addr > w.base {
			lo = int((addr - w.base) / SQSlotBytes)
		}
		hi := int((min(end, wend) - w.base + SQSlotBytes - 1) / SQSlotBytes)
		for idx := lo; idx < hi; idx++ {
			qp := w.qp
			if idx >= len(qp.sq) || idx < qp.sqEnabled {
				// Only staged-but-not-enabled entries are rewritable: once
				// the doorbell covers an entry the NIC owns it.
				continue
			}
			if err := w.mr.Region.ReadAt(w.base-w.mr.Base+uint64(idx)*SQSlotBytes, slot[:]); err != nil {
				continue
			}
			wqe := &qp.sq[idx]
			wqe.Op = Opcode(le32(slot[SQOffOpcode:]))
			wqe.Length = int(le32(slot[SQOffLength:]))
			wqe.RemoteAddr = le64(slot[SQOffRemoteAddr : SQOffRemoteAddr+8])
			wqe.RemoteKey = le32(slot[SQOffRKey:])
			wqe.TargetQPN = le32(slot[SQOffTargetQPN:])
			wqe.CompareAdd = le64(slot[SQOffCompareAdd : SQOffCompareAdd+8])
			wqe.Swap = le64(slot[SQOffSwap : SQOffSwap+8])
			wqe.WaitThresh = le64(slot[SQOffWaitThresh : SQOffWaitThresh+8])
			wqe.EnableCount = int(le32(slot[SQOffEnableCnt:]))
			n.counters.SelfModifies++
		}
	}
}

// landLocal places an inbound READ payload at the WQE's LocalKey/LocalAddr
// destination (a registered local MR) and runs any SQ-window patches the
// landing covers. Returns silently when the target is out of bounds — the
// data still reached LocalData if set, matching a scatter into an invalid
// lkey being caught at post time in real verbs.
func (n *NIC) landLocal(wqe *WQE, data []byte) {
	mr := n.mrs[wqe.LocalKey]
	if mr == nil || mr.Region == nil || wqe.LocalAddr < mr.Base ||
		wqe.LocalAddr+uint64(len(data)) > mr.Base+mr.Size {
		return
	}
	if err := mr.Region.WriteAt(wqe.LocalAddr-mr.Base, data); err != nil {
		return
	}
	if len(n.sqWins) > 0 {
		n.sqPatch(wqe.LocalAddr, len(data))
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
