package nic

import (
	"bytes"
	"testing"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/sim"
)

// Adversarial-frame conformance suite: the go-back-N layer's implicit
// invariants, restated as an explicitly attacked contract. Every test feeds
// forged or replayed frames at a QP the way an on-path adversary does,
// through Deliver(ForgePacket(...)), and asserts what the reliability layer
// now promises under the NeVerMore threat model:
//
//   - a forged NAK must name a gap head that is actually outstanding, or it
//     is rejected without consuming the single per-epoch rewind;
//   - a NAK burst triggers at most one rewind per progress epoch;
//   - completion forgery requires knowing the PSN of a request in flight
//     (snooping, not guessing), and completes only a WQE of the QP the
//     forged ACK names;
//   - no frame carries a source QPN, so a forged request is answered to the
//     peer in the context of the QP it names, whatever QPN the forger
//     claims;
//   - replayed requests are answered without re-execution — memory and the
//     receive queue are touched at most once per PSN;
//   - a duplicate atomic whose replay record was displaced is dropped, never
//     re-executed (atomics are not idempotent);
//   - the unordered half-space PSN edge draws no ACK (no completion forgery
//     for frames the responder never executed);
//   - failQP flushes outstanding WQEs in posting order.

// stalledRig is linkedRig with a blackholed request direction: posted writes
// stay outstanding forever (long retry timeout), giving the forged-frame
// tests a stable transport window to attack.
func stalledRig(t *testing.T, writes int) (*sim.Engine, *NIC, *NIC, *[]Completion) {
	t.Helper()
	eng, a, b, ab, _ := linkedRig(t, CX4, 0)
	ab.SetFaultPlan(&fabric.FaultPlan{Seed: 1, DropProb: 1.0})
	comps := &[]Completion{}
	connect(t, a, b, func(c Completion) { *comps = append(*comps, c) })
	if err := a.SetQPRetry(1, 10*sim.Millisecond, 7); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := 0; i < writes; i++ {
		if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
			RemoteKey: 77, RemoteAddr: b.mrs[77].Base, Length: len(data)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(50 * sim.Microsecond)
	if got := len(a.qps[1].outstanding); got != writes {
		t.Fatalf("outstanding = %d, want %d stalled writes", got, writes)
	}
	return eng, a, b, comps
}

// forgedNak builds the frame a NAK-spoofing adversary sends at a requester.
func forgedNak(a *NIC, psn, ackPSN uint32) fabric.Packet {
	return ForgePacket(a, Message{Op: OpWrite, SrcQPN: 2, DstQPN: 1, IsResp: true,
		Status: StatusSeqNak, PSN: psn, AckPSN: ackPSN})
}

// TestForgedNakValidation: NAKs with a gap head that is not an outstanding
// PSN (stale, future or plain garbage AckPSN) are rejected and counted
// without consuming the rewind epoch; a valid NAK still rewinds — once.
func TestForgedNakValidation(t *testing.T) {
	eng, a, _, _ := stalledRig(t, 4) // outstanding PSNs 0..3
	_ = eng

	invalid := []struct {
		name   string
		ackPSN uint32
	}{
		{"stale", psnMask - 3},    // gap head psnMask-2: long before the window
		{"future", 7},             // gap head 8: beyond the window
		{"far-future", 1 << 20},   // garbage deep in the PSN space
		{"edge-own-tail", 3},      // gap head 4: just past the newest outstanding
		{"half-space", 1<<23 - 1}, // gap head 2^23: unordered vs everything
	}
	for i, c := range invalid {
		Deliver(forgedNak(a, 0, c.ackPSN))
		if got := a.Counters().InvalidNaks; got != uint64(i+1) {
			t.Fatalf("%s: InvalidNaks = %d, want %d", c.name, got, i+1)
		}
		if got := a.Counters().Retransmits; got != 0 {
			t.Fatalf("%s: invalid NAK triggered %d retransmits", c.name, got)
		}
	}

	// A valid NAK (gap head 0 is outstanding) rewinds the whole window.
	Deliver(forgedNak(a, 0, psnMask))
	if got := a.Counters().Retransmits; got != 4 {
		t.Fatalf("valid NAK retransmitted %d, want 4", got)
	}
	// A burst of equally valid NAKs in the same progress epoch is inert:
	// progressEpoch pins the single rewind.
	for i := 0; i < 10; i++ {
		Deliver(forgedNak(a, 0, psnMask))
	}
	if got := a.Counters().Retransmits; got != 4 {
		t.Fatalf("NAK burst multiplied retransmits to %d, want 4", got)
	}
	if got := a.Counters().InvalidNaks; got != uint64(len(invalid)) {
		t.Fatalf("InvalidNaks = %d after burst of valid NAKs, want %d", a.Counters().InvalidNaks, len(invalid))
	}
}

// TestForgedAckRequiresPSN: a frame carries no request id besides its QP
// and PSN, so an ACK carrying the PSN of a WQE in flight on the QP it names
// completes that WQE, as on a real RC requester — the NeVerMore injection
// that still works, priced at full wire visibility. Every other forged ACK
// completes nothing: one at a PSN behind the window is coalesced as a
// duplicate, and one at a PSN the QP never launched, or addressed to a QP
// that launched nothing, is rejected as forged.
func TestForgedAckRequiresPSN(t *testing.T) {
	eng, a, _, comps := stalledRig(t, 2) // outstanding PSNs 0 and 1

	ack := func(psn uint32) Message {
		return Message{Op: OpWrite, SrcQPN: 2, DstQPN: 1, IsResp: true,
			Status: StatusOK, PSN: psn, AckPSN: psn}
	}

	Deliver(ForgePacket(a, ack(psnMask))) // stale PSN, behind the window
	eng.RunFor(10 * sim.Microsecond)
	if got := a.Counters().DupAcks; got != 1 {
		t.Fatalf("DupAcks = %d, want 1", got)
	}
	if len(*comps) != 0 {
		t.Fatalf("stale-PSN ACK delivered a CQE: %+v", *comps)
	}

	Deliver(ForgePacket(a, ack(5))) // guessed PSN, never launched
	eng.RunFor(10 * sim.Microsecond)
	if got := a.Counters().InvalidAcks; got != 1 {
		t.Fatalf("InvalidAcks = %d, want 1", got)
	}
	if len(*comps) != 0 {
		t.Fatalf("unlaunched-PSN ACK delivered a CQE: %+v", *comps)
	}

	// QP 1's pending PSN, addressed to another QP of the same NIC: the
	// window of the QP a response names is the only place its WQE is
	// looked up, and QP 3 has launched nothing, so the ACK is forged.
	var idle []Completion
	if err := a.CreateQP(3, func(c Completion) { idle = append(idle, c) }, nil); err != nil {
		t.Fatal(err)
	}
	crossQP := ack(1)
	crossQP.DstQPN = 3
	Deliver(ForgePacket(a, crossQP))
	eng.RunFor(10 * sim.Microsecond)
	if got := a.Counters().InvalidAcks; got != 2 {
		t.Fatalf("InvalidAcks = %d after cross-QP ACK, want 2", got)
	}
	if len(*comps) != 0 || len(idle) != 0 {
		t.Fatalf("cross-QP ACK delivered a CQE: QP 1 %+v, QP 3 %+v", *comps, idle)
	}

	Deliver(ForgePacket(a, ack(0))) // fully snooped forgery
	eng.RunFor(10 * sim.Microsecond)
	if len(*comps) != 1 || (*comps)[0].Status != StatusOK || (*comps)[0].WRID != 0 {
		t.Fatalf("snooped forged ACK should fake exactly one OK CQE, got %+v", *comps)
	}
}

// TestForgedSourceQPNIgnored: no frame carries a source QPN, so a request
// is answered to the peer in the context of the QP it names. A WRITE forged
// at B's QP 2 claiming source QPN 9 draws its ACK to A's QP 1, B's peer,
// which never launched PSN 0 and so rejects the ACK as forged; it is not
// addressed to a QP 9 that A does not have.
func TestForgedSourceQPNIgnored(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	Deliver(ForgePacket(b, Message{Op: OpWrite, SrcQPN: 9, DstQPN: 2, RKey: 77,
		RemoteAddr: region.Base(), Length: 8, Data: []byte("forged!!"), PSN: 0}))
	eng.Run()
	if c := a.Counters(); c.InvalidAcks != 1 || c.DupAcks != 0 {
		t.Fatalf("InvalidAcks = %d, DupAcks = %d; want 1, 0", c.InvalidAcks, c.DupAcks)
	}
	if len(comps) != 0 {
		t.Fatalf("forged WRITE completed a WQE: %+v", comps)
	}
}

// TestReplayedWriteNotReExecuted: a replayed (duplicate) WRITE request is
// re-ACKed without touching memory — an attacker replaying a captured frame
// with altered payload cannot overwrite the original data — and the second
// ACK coalesces at the requester without a second CQE.
func TestReplayedWriteNotReExecuted(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	orig := []byte("genuine payload.")
	if err := a.PostSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: orig,
		RemoteKey: 77, RemoteAddr: region.Base(), Length: len(orig)}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}

	// Replay the same PSN with attacker-altered bytes.
	Deliver(ForgePacket(b, Message{Op: OpWrite, SrcQPN: 1, DstQPN: 2, RKey: 77,
		RemoteAddr: region.Base(), Length: len(orig), Data: []byte("TAMPERED PAYLOAD"), PSN: 0}))
	eng.Run()

	if got := string(region.Bytes()[:len(orig)]); got != string(orig) {
		t.Fatalf("replayed WRITE re-executed: memory = %q", got)
	}
	if got := b.Counters().DupReqs; got != 1 {
		t.Fatalf("DupReqs = %d, want 1", got)
	}
	if got := a.Counters().DupAcks; got != 1 {
		t.Fatalf("DupAcks = %d, want 1 (replay ACK coalesced)", got)
	}
	if len(comps) != 1 {
		t.Fatalf("replay delivered a second CQE: %d", len(comps))
	}
}

// TestAtomicReplayDisplacedDropped pins the replay-buffer recycling fix: a
// duplicate atomic whose one-deep replay record was displaced by a newer
// atomic is dropped without response — before the fix it fell through to
// re-execution and double-applied the FAA.
func TestAtomicReplayDisplacedDropped(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	post := func(wrid uint64, add uint64) {
		t.Helper()
		if err := a.PostSend(1, &WQE{WRID: wrid, Op: OpAtomicFAA, RemoteKey: 77,
			RemoteAddr: region.Base(), Length: 8, CompareAdd: add}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	post(1, 5)
	post(2, 7)
	if len(comps) != 2 {
		t.Fatalf("completions = %d", len(comps))
	}
	if got := le64(region.Bytes()[:8]); got != 12 {
		t.Fatalf("memory = %d after two FAAs, want 12", got)
	}

	// Duplicate of the FIRST atomic: its replay record was displaced by the
	// second. Must be dropped — not re-executed, not answered.
	Deliver(ForgePacket(b, Message{Op: OpAtomicFAA, SrcQPN: 1, DstQPN: 2, RKey: 77,
		RemoteAddr: region.Base(), Length: 8, CompareAdd: 5, PSN: 0}))
	eng.Run()
	if got := le64(region.Bytes()[:8]); got != 12 {
		t.Fatalf("displaced duplicate atomic re-executed: memory = %d, want 12", got)
	}
	if got := a.Counters().DupAcks; got != 0 {
		t.Fatalf("displaced duplicate drew a response: DupAcks = %d", got)
	}

	// Duplicate of the SECOND atomic: record present, replayed from the
	// buffer — the recorded original value, no re-execution.
	Deliver(ForgePacket(b, Message{Op: OpAtomicFAA, SrcQPN: 1, DstQPN: 2, RKey: 77,
		RemoteAddr: region.Base(), Length: 8, CompareAdd: 7, PSN: 1}))
	eng.Run()
	if got := le64(region.Bytes()[:8]); got != 12 {
		t.Fatalf("replayed atomic re-executed: memory = %d, want 12", got)
	}
	if got := a.Counters().DupAcks; got != 1 {
		t.Fatalf("DupAcks = %d, want 1 (replayed atomic response coalesced)", got)
	}
	if got := b.Counters().DupReqs; got != 2 {
		t.Fatalf("DupReqs = %d, want 2", got)
	}
	if len(comps) != 2 {
		t.Fatalf("atomic replays delivered extra CQEs: %d", len(comps))
	}
}

// TestHalfSpacePSNConvention pins the chosen convention at the unordered
// edge of the 24-bit circular order: at exactly 2^23 apart neither PSN is
// after the other, and the responder discards such frames without executing,
// NAKing or — critically — replay-ACKing them.
func TestHalfSpacePSNConvention(t *testing.T) {
	const half = uint32(1 << 23)
	for _, c := range []struct{ a, b uint32 }{
		{half, 0}, {0, half}, {half + 7, 7}, {3, half + 3},
	} {
		if psnAfter(c.a, c.b) || psnAfter(c.b, c.a) {
			t.Fatalf("psnAfter not unordered at half-space: (%#x,%#x)", c.a, c.b)
		}
		if !psnHalfAway(c.a, c.b) || !psnHalfAway(c.b, c.a) {
			t.Fatalf("psnHalfAway(%#x,%#x) should hold symmetrically", c.a, c.b)
		}
	}
	if psnHalfAway(1, 0) || psnHalfAway(0, psnMask) {
		t.Fatal("psnHalfAway true off the edge")
	}

	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })

	req := func(psn uint32) fabric.Packet {
		return ForgePacket(b, Message{Op: OpWrite, SrcQPN: 1, DstQPN: 2, RKey: 77,
			RemoteAddr: region.Base(), Length: 8, Data: []byte("12345678"), PSN: psn})
	}
	// Exactly half the space ahead of ePSN 0: discarded, not classified.
	Deliver(req(half))
	eng.Run()
	bc := b.Counters()
	if bc.RxBadPSN != 1 || bc.DupReqs != 0 || bc.SeqNaks != 0 {
		t.Fatalf("half-space frame: RxBadPSN=%d DupReqs=%d SeqNaks=%d, want 1/0/0",
			bc.RxBadPSN, bc.DupReqs, bc.SeqNaks)
	}
	if got := a.Counters().DupAcks; got != 0 {
		t.Fatalf("half-space frame drew a response: DupAcks = %d", got)
	}
	// Just under half: a legitimate (huge) gap — one NAK.
	Deliver(req(half - 1))
	eng.Run()
	if got := b.Counters().SeqNaks; got != 1 {
		t.Fatalf("SeqNaks = %d, want 1", got)
	}
	// Just over half (counted from ePSN backwards): the duplicate region.
	Deliver(req(psnMask))
	eng.Run()
	if got := b.Counters().DupReqs; got != 1 {
		t.Fatalf("DupReqs = %d, want 1", got)
	}
	if len(comps) != 0 {
		t.Fatalf("forged requests completed victim WQEs: %+v", comps)
	}
}

// TestOutOfWindowSingleNak: out-of-window (future) PSNs draw exactly one
// NAK per gap — later out-of-order arrivals are silently discarded until the
// stream recovers, so a gap-spam adversary cannot turn the responder into a
// NAK amplifier.
func TestOutOfWindowSingleNak(t *testing.T) {
	eng, _, b, region := loopRig(t, CX4)
	if err := b.CreateQP(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	// No reverse path wired: the NAK attempt itself is dropped at respondNak,
	// which is fine — the counter is charged when the NAK is generated.
	for _, psn := range []uint32{5, 6, 7, 100} {
		Deliver(ForgePacket(b, Message{Op: OpWrite, SrcQPN: 9, DstQPN: 2, RKey: 77,
			RemoteAddr: region.Base(), Length: 8, Data: []byte("xxxxxxxx"), PSN: psn}))
	}
	eng.Run()
	if got := b.Counters().SeqNaks; got != 1 {
		t.Fatalf("SeqNaks = %d, want 1 (one NAK per gap)", got)
	}
}

// TestFailQPFlushOrder: retry exhaustion flushes every outstanding WQE with
// StatusRetryExcErr in posting order — the CQE stream stays FIFO even on the
// error path.
func TestFailQPFlushOrder(t *testing.T) {
	eng, a, b, ab, _ := linkedRig(t, CX4, 0)
	ab.SetFaultPlan(&fabric.FaultPlan{Seed: 1, DropProb: 1.0})
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	if err := a.SetQPRetry(1, 2*sim.Microsecond, 3); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	wrids := []uint64{10, 11, 12, 13}
	for _, w := range wrids {
		if err := a.PostSend(1, &WQE{WRID: w, Op: OpWrite, LocalData: data,
			RemoteKey: 77, RemoteAddr: b.mrs[77].Base, Length: len(data)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(comps) != len(wrids) {
		t.Fatalf("flushed %d CQEs, want %d", len(comps), len(wrids))
	}
	for i, c := range comps {
		if c.Status != StatusRetryExcErr {
			t.Fatalf("CQE %d status = %v, want RETRY_EXC_ERR", i, c.Status)
		}
		if c.WRID != wrids[i] {
			t.Fatalf("flush order broken: CQE %d is WRID %d, want %d", i, c.WRID, wrids[i])
		}
	}
	if !a.QPFailed(1) {
		t.Fatal("QP not failed after flush")
	}
}

// TestQPGuessingCounted: requests sprayed at QPNs that were never created
// are answered (or dropped) without side effects and charged to RxBadQP —
// the observable a QP-number-guessing sweep cannot avoid.
func TestQPGuessingCounted(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	for qpn := uint32(100); qpn < 116; qpn++ {
		Deliver(ForgePacket(b, Message{Op: OpWrite, SrcQPN: 9, DstQPN: qpn, RKey: 77,
			RemoteAddr: region.Base(), Length: 8, Data: []byte("guessing"), PSN: 0}))
	}
	eng.Run()
	if got := b.Counters().RxBadQP; got != 16 {
		t.Fatalf("RxBadQP = %d, want 16", got)
	}
	if len(comps) != 0 {
		t.Fatalf("QP guessing completed victim WQEs: %+v", comps)
	}
}

// captureTap snoops and replays the first READ response it sees on a link.
type captureTap struct {
	snooped  Message
	replayed fabric.Packet
	seen     bool
}

func (c *captureTap) Observe(_ sim.Time, p fabric.Packet) {
	if m, ok := SnoopPacket(p); ok && !c.seen && m.IsResp && m.Op == OpRead {
		c.snooped, c.seen = m, true
		c.replayed, _ = ReplayPacket(p)
	}
}

// TestSnoopAndReplayCopyPayload: a READ response's payload travels in its
// envelope's frames, which the NICs reuse for later messages, and the
// responder's read buffer is reused by the next READ, so what SnoopPacket
// and ReplayPacket return must own its bytes. After many more READs of
// other data have reused every envelope, both still hold the captured
// payload.
func TestSnoopAndReplayCopyPayload(t *testing.T) {
	eng, a, b, _, ba := linkedRig(t, CX5, 0)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	tap := &captureTap{}
	ba.SetAdversary(tap)
	region := b.mrs[77].Region
	const size = 256
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	if err := region.WriteAt(0, want); err != nil {
		t.Fatal(err)
	}
	read := func(wrid uint64, off uint64) {
		if err := a.PostSend(1, &WQE{WRID: wrid, Op: OpRead, RemoteKey: 77,
			RemoteAddr: b.mrs[77].Base + off, Length: size}); err != nil {
			t.Fatal(err)
		}
	}
	read(0, 0)
	eng.Run()
	if !tap.seen {
		t.Fatal("no READ response crossed the link")
	}
	// Fill the rest of the MR with other bytes and read it back through
	// every buffer the NICs own.
	other := make([]byte, size)
	for i := range other {
		other[i] = 0xee
	}
	for k := uint64(1); k <= 16; k++ {
		if err := region.WriteAt(k*size, other); err != nil {
			t.Fatal(err)
		}
		read(k, k*size)
		if k%4 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if len(comps) != 17 {
		t.Fatalf("%d completions, want 17", len(comps))
	}
	if !bytes.Equal(tap.snooped.Data, want) {
		t.Fatal("snooped payload changed after the NICs reused their buffers")
	}
	replayed, ok := SnoopPacket(tap.replayed)
	if !ok || !bytes.Equal(replayed.Data, want) {
		t.Fatal("replayed payload changed after the NICs reused their buffers")
	}
}

// TestSnoopAllocatesOnlyPayload: snooping a payload-less READ request
// decodes it with a reader its NIC owns, so it allocates nothing; only a
// payload is copied.
func TestSnoopAllocatesOnlyPayload(t *testing.T) {
	_, _, b, _, _ := linkedRig(t, CX5, 0)
	p := ForgePacket(b, Message{Op: OpRead, DstQPN: 2, PSN: 5, RKey: 77,
		RemoteAddr: b.mrs[77].Base, Length: 64})
	var m Message
	allocs := testing.AllocsPerRun(100, func() { m, _ = SnoopPacket(p) })
	if allocs != 0 {
		t.Fatalf("snooping a READ request allocates %.1f times, want 0", allocs)
	}
	if m.Op != OpRead || m.PSN != 5 || m.Length != 64 || m.Data != nil {
		t.Fatalf("snooped %+v", m)
	}
}
