package nic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/sim"
)

// linkedRig builds two NICs joined by 200 ns fabric links whose egress
// queues hold maxQueue packets per TC (0: unbounded), so tail drops and
// fault plans apply.
func linkedRig(t *testing.T, p Profile, maxQueue int) (*sim.Engine, *NIC, *NIC, *fabric.Link, *fabric.Link) {
	t.Helper()
	return rig(t, p, 200*sim.Nanosecond, maxQueue)
}

// TestSaturatedTCQueueNoPanic is the regression for the removed
// panic("nic ...: wire drop"): a small-message flow on TC3 saturates its
// bounded egress queue while a large-message flow hogs the wire on TC0.
// Before the RC reliability layer this crashed the run; now the drops are
// counted and every WQE still completes via retransmission.
//
// The egress arbiter paces each handoff by that packet's own serialization
// time, so a queue only builds when small packets emerge while the wire is
// mid-way through a large one. Bursts of TC3 writes posted while the TC0
// stream is on the wire queue up behind the in-service 4 KB packet at the
// arbiter, then land on the busy link ~47 ns apart — far faster than it can
// drain them — overflowing the 4-deep TC3 queue.
func TestSaturatedTCQueueNoPanic(t *testing.T) {
	eng, a, b, _, _ := linkedRig(t, CX4, 4)
	var comps []Completion
	onComplete := func(c Completion) { comps = append(comps, c) }
	for _, q := range []struct{ local, remote uint32 }{{1, 2}, {3, 4}} {
		if err := a.CreateQP(q.local, onComplete, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.CreateQP(q.remote, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.ConnectQP(q.local, b, q.remote); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectQP(q.remote, a, q.local); err != nil {
			t.Fatal(err)
		}
		if err := a.SetQPRetry(q.local, 20*sim.Microsecond, 12); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 4096)
	small := make([]byte, 64)
	mrBase := b.mrs[77].Base
	posted := 0
	for i := 0; i < 16; i++ {
		if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: big,
			RemoteKey: 77, RemoteAddr: mrBase, Length: len(big), TC: 0}); err != nil {
			t.Fatal(err)
		}
		posted++
	}
	// The 16 large writes occupy the wire back to back from ~4 µs to ~26 µs;
	// each small-write wave lands inside that stream.
	for wave := 0; wave < 3; wave++ {
		eng.RunUntil(sim.Time(0).Add(sim.Duration(6+2*wave) * sim.Microsecond))
		for j := 0; j < 8; j++ {
			if err := a.PostSend(3, &WQE{WRID: uint64(100 + 8*wave + j), Op: OpWrite, LocalData: small,
				RemoteKey: 77, RemoteAddr: mrBase + 8192, Length: len(small), TC: 3}); err != nil {
				t.Fatal(err)
			}
			posted++
		}
	}
	eng.Run()
	if len(comps) != posted {
		t.Fatalf("completions = %d, posted %d", len(comps), posted)
	}
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("completion %+v", c)
		}
	}
	var totalDrops uint64
	for tc, v := range a.Counters().WireDropsTC {
		_ = tc
		totalDrops += v
	}
	if totalDrops == 0 {
		t.Fatal("expected tail drops on the saturated TC queue, saw none")
	}
	if a.Counters().Retransmits == 0 {
		t.Fatal("expected retransmissions to recover the drops")
	}
}

// TestFaultPlanLossRecovers checks the probabilistic-drop path end to end:
// loss on both directions, everything still completes OK.
func TestFaultPlanLossRecovers(t *testing.T) {
	eng, a, b, ab, ba := linkedRig(t, CX4, 0)
	ab.SetFaultPlan(&fabric.FaultPlan{Seed: 11, DropProb: 0.2})
	ba.SetFaultPlan(&fabric.FaultPlan{Seed: 12, DropProb: 0.2})
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	if err := a.SetQPRetry(1, 10*sim.Microsecond, 20); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	mrBase := b.mrs[77].Base
	for i := 0; i < 32; i++ {
		if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
			RemoteKey: 77, RemoteAddr: mrBase, Length: len(data)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(comps) != 32 {
		t.Fatalf("completions = %d", len(comps))
	}
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("completion %+v", c)
		}
	}
	if a.Counters().Retransmits == 0 && a.Counters().DupAcks == 0 {
		t.Fatal("20% loss produced no transport recovery activity")
	}
}

// TestPSNWraparound drives a window across the 24-bit PSN boundary.
func TestPSNWraparound(t *testing.T) {
	eng, a, b, _ := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	a.qps[1].nextPSN = psnMask - 2
	b.qps[2].epsn = psnMask - 2
	data := make([]byte, 64)
	for i := 0; i < 6; i++ {
		if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
			RemoteKey: 77, RemoteAddr: b.mrs[77].Base, Length: len(data)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(comps) != 6 {
		t.Fatalf("completions = %d", len(comps))
	}
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("completion %+v", c)
		}
	}
	if got := a.qps[1].nextPSN; got != 3 {
		t.Fatalf("requester PSN after wrap = %d, want 3", got)
	}
	if got := b.qps[2].epsn; got != 3 {
		t.Fatalf("responder ePSN after wrap = %d, want 3", got)
	}
}

// TestPSNCircularOrder pins the 24-bit comparison helper across the wrap.
func TestPSNCircularOrder(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{0, 0, false},
		{0, psnMask, true},        // 0 comes just after 0xffffff
		{psnMask, 0, false},       // and not the other way round
		{1 << 23, 0, false},       // exactly half the space is "before"
		{(1 << 23) - 1, 0, true},  // just under half is "after"
		{5, psnMask - 5, true},    // wrapped window
		{psnMask - 5, 5, false},   // reverse of the wrapped window
		{psnMask, psnMask, false}, // equality is never "after"
	}
	for _, c := range cases {
		if got := psnAfter(c.a, c.b); got != c.want {
			t.Errorf("psnAfter(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestDupAckCoalescing injects a duplicate ACK for an already-completed WQE:
// it must be counted and coalesced, never delivered as a second CQE.
func TestDupAckCoalescing(t *testing.T) {
	eng, a, b, _ := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	data := make([]byte, 64)
	if err := a.PostSend(1, &WQE{WRID: 9, Op: OpWrite, LocalData: data,
		RemoteKey: 77, RemoteAddr: b.mrs[77].Base, Length: len(data)}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	// A retransmission's second ACK arrives after the first completed.
	Deliver(ForgePacket(a, Message{Op: OpWrite, SrcQPN: 2, DstQPN: 1, IsResp: true,
		Status: StatusOK, PSN: 0, AckPSN: 0}))
	eng.Run()
	if len(comps) != 1 {
		t.Fatalf("duplicate ACK delivered a second CQE: completions = %d", len(comps))
	}
	if a.Counters().DupAcks != 1 {
		t.Fatalf("DupAcks = %d, want 1", a.Counters().DupAcks)
	}
}

// blackholeRun drives one write into a fully lossy link and returns the
// error CQE and its completion time.
func blackholeRun(t *testing.T) (Completion, *NIC) {
	t.Helper()
	eng, a, b, ab, _ := linkedRig(t, CX4, 0)
	ab.SetFaultPlan(&fabric.FaultPlan{Seed: sim.DeriveSeed(42, 0), DropProb: 1.0})
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	if err := a.SetQPRetry(1, 2*sim.Microsecond, 5); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	if err := a.PostSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: data,
		RemoteKey: 77, RemoteAddr: b.mrs[77].Base, Length: len(data)}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	if got := a.Counters().Timeouts; got != 5 {
		t.Fatalf("Timeouts = %d, want 5", got)
	}
	if got := a.Counters().Retransmits; got != 5 {
		t.Fatalf("Retransmits = %d, want 5", got)
	}
	if got := a.Counters().RetryExc; got != 1 {
		t.Fatalf("RetryExc = %d, want 1", got)
	}
	return comps[0], a
}

// TestRetryExhaustionBackoffDeterminism checks the full failure path: a
// blackholed QP walks the exponential backoff schedule, fails with a
// StatusRetryExcErr CQE, rejects further posts — and two runs under the same
// sim.DeriveSeed land on the identical virtual completion time.
func TestRetryExhaustionBackoffDeterminism(t *testing.T) {
	c1, a1 := blackholeRun(t)
	c2, _ := blackholeRun(t)
	if c1.Status != StatusRetryExcErr {
		t.Fatalf("status = %v, want RETRY_EXC_ERR", c1.Status)
	}
	if c1.DoneTime != c2.DoneTime {
		t.Fatalf("backoff schedule nondeterministic: %v vs %v", c1.DoneTime, c2.DoneTime)
	}
	// Exponential backoff: failure cannot precede base*(1+2+4+8+16+32).
	if min63 := c1.PostTime.Add(63 * 2 * sim.Microsecond); c1.DoneTime < min63 {
		t.Fatalf("failed at %v, before the backed-off schedule allows (%v)", c1.DoneTime, min63)
	}
	if !a1.QPFailed(1) {
		t.Fatal("QP not marked failed after retry exhaustion")
	}
	err := a1.PostSend(1, &WQE{WRID: 2, Op: OpWrite, LocalData: make([]byte, 8),
		RemoteKey: 77, RemoteAddr: 0, Length: 8})
	if err == nil {
		t.Fatal("PostSend on a failed QP succeeded")
	}
}

// TestByteConservationUnderLoss: at any loss rate < 100 % (here up to 50 %
// each way), every posted write completes OK and lands in responder memory
// exactly once — bytes are neither lost nor duplicated by the go-back-N
// layer. testing/quick drives loss rate and RNG seeds.
func TestByteConservationUnderLoss(t *testing.T) {
	const msgs, msgLen = 20, 64
	prop := func(seed int64, lossRaw uint16) bool {
		loss := float64(lossRaw%5000) / 10000 // 0 .. 0.4999
		eng := sim.NewEngine(1)
		hA := host.New(host.H2)
		hB := host.New(host.H3)
		a := New(eng, "a", CX4, hA)
		b := New(eng, "b", CX4, hB)
		ab := fabric.NewLink(eng, "a->b", CX4.LineRateGbps, 200*sim.Nanosecond, 0, Deliver)
		ba := fabric.NewLink(eng, "b->a", CX4.LineRateGbps, 200*sim.Nanosecond, 0, Deliver)
		a.AddPeerLink(b, ab)
		b.AddPeerLink(a, ba)
		ab.SetFaultPlan(&fabric.FaultPlan{Seed: sim.DeriveSeed(seed, 0), DropProb: loss})
		ba.SetFaultPlan(&fabric.FaultPlan{Seed: sim.DeriveSeed(seed, 1), DropProb: loss})
		region, err := hB.Alloc(2<<20, host.Page2M)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.RegisterMR(MRInfo{Key: 77, Base: region.Base(), Size: region.Size(),
			Region: region, PageSize: uint64(host.Page2M), RemoteWrite: true}); err != nil {
			t.Fatal(err)
		}
		var okComps int
		var recvBytes int
		if err := a.CreateQP(1, func(c Completion) {
			if c.Status == StatusOK {
				okComps++
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.CreateQP(2, nil, func(ev RecvEvent) { recvBytes += ev.Bytes }); err != nil {
			t.Fatal(err)
		}
		if err := a.ConnectQP(1, b, 2); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectQP(2, a, 1); err != nil {
			t.Fatal(err)
		}
		if err := a.SetQPRetry(1, 5*sim.Microsecond, 40); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, msgLen)
		for i := 0; i < msgs; i++ {
			if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: msgLen}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return okComps == msgs && recvBytes == msgs*msgLen
	}
	cfg := &quick.Config{
		MaxCount: 25,
		// Fixed source: the property is deterministic run to run.
		Rand: rand.New(rand.NewSource(7)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionDiscardedAndRecovered: corrupted packets are dropped before
// parsing (RxCorrupt counts them) and the transport recovers them like loss.
func TestCorruptionDiscardedAndRecovered(t *testing.T) {
	eng, a, b, ab, _ := linkedRig(t, CX4, 0)
	ab.SetFaultPlan(&fabric.FaultPlan{Seed: 3, CorruptProb: 0.25})
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	if err := a.SetQPRetry(1, 10*sim.Microsecond, 20); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	for i := 0; i < 24; i++ {
		if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
			RemoteKey: 77, RemoteAddr: b.mrs[77].Base, Length: len(data)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(comps) != 24 {
		t.Fatalf("completions = %d", len(comps))
	}
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("completion %+v", c)
		}
	}
	if b.Counters().RxCorrupt == 0 {
		t.Fatal("no corrupted packets discarded at 25% corruption")
	}
}
