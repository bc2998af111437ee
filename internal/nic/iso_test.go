package nic

import (
	"math"
	"testing"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/sim"
)

// CX5-ISO closes the Grain-I priority covert channel: the monitor's
// bandwidth gap between the sender's bit-0 and bit-1 loads collapses to
// (near) zero, where the paper profiles show >= 15% (see
// TestPriorityChannelObservable).
func TestIsolatedClosesPriorityChannel(t *testing.T) {
	p := CX5ISO
	mon := FlowSpec{Name: "mon", Op: OpRead, MsgBytes: 1024, QPNum: 1, Client: 1}
	bit1 := Solve(p, []FlowSpec{{Name: "tx", Op: OpWrite, MsgBytes: 128, QPNum: 4, Client: 0}, mon})[1]
	bit0 := Solve(p, []FlowSpec{{Name: "tx", Op: OpWrite, MsgBytes: 2048, QPNum: 4, Client: 0}, mon})[1]
	gap := math.Abs(bit1.GoodputGbps-bit0.GoodputGbps) / bit1.GoodputGbps
	if gap > 0.02 {
		t.Errorf("CX5-ISO: monitor gap %.1f%%, isolation should hold it under 2%%", gap*100)
	}
}

// The KF2 abnormal increment is gone on CX5-ISO: aggregate small-write
// traffic stays at (or below) 200% of solo because the NoC is pinned at its
// base clock.
func TestIsolatedClosesKF2(t *testing.T) {
	p := CX5ISO
	w1 := FlowSpec{Name: "w1", Op: OpWrite, MsgBytes: 64, QPNum: 4, Client: 0}
	w2 := FlowSpec{Name: "w2", Op: OpWrite, MsgBytes: 64, QPNum: 4, Client: 1}
	solo := Solo(p, w1)
	res := Solve(p, []FlowSpec{w1, w2})
	total := (res[0].GoodputGbps + res[1].GoodputGbps) / solo.GoodputGbps * 100
	if total > 200 {
		t.Errorf("CX5-ISO: aggregate %.0f%% of solo, the pinned NoC should keep it <= 200%%", total)
	}
}

// A lone ISO tenant pays nothing for the partition when the shared-clock
// effects are out of play: solo large-message goodput matches CX5 (large
// messages never trigger CX5's NoC boost, so the only differences would be
// partition overhead — which must not exist for a lone tenant).
func TestIsolatedSoloLargeUnchanged(t *testing.T) {
	for _, op := range []Opcode{OpWrite, OpRead} {
		f := FlowSpec{Op: op, MsgBytes: 4096, QPNum: 4}
		base := Solo(CX5, f).GoodputGbps
		iso := Solo(CX5ISO, f).GoodputGbps
		if math.Abs(base-iso) > 1e-9 {
			t.Errorf("%s 4KB solo: CX5=%.4fG CX5-ISO=%.4fG, want identical", op, base, iso)
		}
	}
}

// DWRR shares egress service equally: over two backlogged tenants at equal
// request sizes, each gets about half the picks.
func TestDWRRProportionalPicks(t *testing.T) {
	a := NewDWRRArbiter()
	// A standing queue: both tenants always have one 2048 B head-of-line
	// request (indices alternate to prove head-of-line selection, not
	// position bias).
	q := []sim.ReqMeta{
		{Tenant: 1, Bytes: 2048}, {Tenant: 0, Bytes: 2048},
		{Tenant: 1, Bytes: 2048}, {Tenant: 0, Bytes: 2048},
	}
	var picks [2]int
	for i := 0; i < 4000; i++ {
		got := a.Pick(q)
		picks[q[got].Tenant]++
	}
	ratio := float64(picks[0]) / float64(picks[1])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("pick ratio tenant0:tenant1 = %.2f (%d:%d), want ~1.0", ratio, picks[0], picks[1])
	}
}

// The constant-time TPU has zero offset-vs-latency correlation: every
// offset in the sweep yields the identical service time, while the
// empirical surface varies (that variation is KF4's carrier). Jitter is off
// so Translate returns the deterministic core.
func TestConstTPUZeroOffsetCorrelation(t *testing.T) {
	p := CX5
	p.TPUNoiseSig, p.TPUSpike, p.TPUSpikeP = 0, 0, 0
	ct := NewTPU(WithConstTPU(p), sim.NewEngine(1).Rand())
	emp := NewTPU(p, sim.NewEngine(1).Rand())

	var ctTimes, empTimes []float64
	for off := uint64(0); off <= 4096; off += 8 {
		req := Request{MRKey: 1, Offset: off, Length: 64, MRBase: 0, PageSize: 2 << 20}
		ctTimes = append(ctTimes, float64(ct.Translate(req)))
		empTimes = append(empTimes, float64(emp.Translate(req)))
	}
	for i, d := range ctTimes {
		if d != ctTimes[0] {
			t.Fatalf("const-TPU service varies with offset: sample %d = %v, sample 0 = %v", i, d, ctTimes[0])
		}
	}
	varies := false
	for _, d := range empTimes {
		if d != empTimes[0] {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("empirical TPU shows no offset dependence — KF4 carrier missing")
	}
	// Pearson correlation against offset: exactly 0 for the flat surface.
	if r := offsetCorr(ctTimes); math.Abs(r) > 1e-12 {
		t.Fatalf("const-TPU offset correlation = %v, want 0", r)
	}
	if r := offsetCorr(empTimes); math.Abs(r) < 1e-6 {
		t.Fatalf("empirical offset correlation = %v, want non-zero", r)
	}
}

// offsetCorr computes Pearson correlation of a series against its index.
func offsetCorr(ys []float64) float64 {
	n := float64(len(ys))
	var sx, sy, sxx, syy, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	den := math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy)
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// SetConstantTime switches the TPU at runtime (the defense package's
// ConstantTimeMitigation relies on it), and a ConstTPU profile starts with
// it on.
func TestSetConstantTimeSwapsStrategy(t *testing.T) {
	tp := NewTPU(CX5, sim.NewEngine(1).Rand())
	if tp.ConstantTimeEnabled() {
		t.Fatal("CX5 should start on the empirical surface")
	}
	tp.SetConstantTime(true)
	if !tp.ConstantTimeEnabled() {
		t.Fatal("SetConstantTime(true) did not turn constant time on")
	}
	tp.SetConstantTime(false)
	if tp.ConstantTimeEnabled() {
		t.Fatal("SetConstantTime(false) did not restore the empirical surface")
	}
	if !NewTPU(WithConstTPU(CX5), sim.NewEngine(1).Rand()).ConstantTimeEnabled() {
		t.Fatal("WithConstTPU profile should construct a const-time TPU")
	}
}

// Derived profiles keep their base adapter's identity for channel
// calibration.
func TestDerivedProfileBase(t *testing.T) {
	for _, p := range []Profile{CX5ISO, WithConstTPU(CX5ISO), WithAES(CX5ISO), WithConstTPU(CX5), WithAES(CX5)} {
		if p.Base != CX5.Name {
			t.Fatalf("%s: Base = %q, want %q", p.Name, p.Base, CX5.Name)
		}
	}
	for _, p := range PaperProfiles {
		if p.Base != "" {
			t.Fatalf("%s: paper profile has non-empty Base %q", p.Name, p.Base)
		}
	}
}

// The arbiter hot path must stay allocation-free (gated in CI by
// scripts/benchguard.go).
func BenchmarkArbiterPick(b *testing.B) {
	q := make([]sim.ReqMeta, 16)
	for i := range q {
		q[i] = sim.ReqMeta{Class: i % 2, Tenant: i % 4, Bytes: 64 << (i % 5)}
	}
	b.Run("strict", func(b *testing.B) {
		b.ReportAllocs()
		a := StrictArbiter{}
		for i := 0; i < b.N; i++ {
			_ = a.Pick(q)
		}
	})
	b.Run("dwrr", func(b *testing.B) {
		b.ReportAllocs()
		a := NewDWRRArbiter()
		for i := 0; i < b.N; i++ {
			_ = a.Pick(q)
		}
	})
}

// isoSample runs eng in 10 ns steps until done reports true, calling probe
// after every step, then drains what is left.
func isoSample(t *testing.T, eng *sim.Engine, done func() bool, probe func()) {
	t.Helper()
	for limit := eng.Now().Add(10 * sim.Millisecond); !done(); {
		if eng.Now() > limit {
			t.Fatal("run did not finish")
		}
		eng.RunUntil(eng.Now().Add(10 * sim.Nanosecond))
		probe()
	}
	eng.Run()
}

// TestISOCreditsBalanceUnderLoss: after a lossy CX5-ISO run drains, every
// responder credit pool is full again and no request is left waiting for a
// credit. Three tenants each keep three times their pool in READs, so
// requests queue for credits, and 5 % loss makes the requester retransmit.
func TestISOCreditsBalanceUnderLoss(t *testing.T) {
	eng, a, b, ab, ba := linkedRig(t, CX5ISO, 0)
	ab.SetFaultPlan(&fabric.FaultPlan{Seed: 21, DropProb: 0.05})
	ba.SetFaultPlan(&fabric.FaultPlan{Seed: 22, DropProb: 0.05})
	const tenants, perQP = 3, 3 * isoPoolDepth
	var comps []Completion
	for i := 0; i < tenants; i++ {
		aq, bq := uint32(10+i), uint32(20+i)
		if err := a.CreateQP(aq, func(c Completion) { comps = append(comps, c) }, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.CreateQP(bq, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.ConnectQP(aq, b, bq); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectQP(bq, a, aq); err != nil {
			t.Fatal(err)
		}
		b.SetQPTenant(bq, i)
		if err := a.SetQPRetry(aq, 20*sim.Microsecond, 100); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < perQP; k++ {
			if err := a.PostSend(aq, &WQE{WRID: uint64(k), Op: OpRead, RemoteKey: 77,
				RemoteAddr: b.mrs[77].Base + uint64(k)*1024, Length: 1024}); err != nil {
				t.Fatal(err)
			}
		}
	}
	maxWait := 0
	isoSample(t, eng, func() bool { return len(comps) == tenants*perQP }, func() {
		for _, w := range b.isoWait {
			maxWait = max(maxWait, len(w))
		}
	})
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("completion %+v", c)
		}
	}
	if maxWait == 0 {
		t.Fatal("no request ever waited for a credit: the pools never bound")
	}
	if b.Counters().DupReqs == 0 {
		t.Fatal("no retransmitted request reached the responder")
	}
	for tn := range b.isoCredits {
		if got := b.isoCredits[tn]; got != isoPoolDepth {
			t.Errorf("tenant %d: %d credits after drain, want the full pool of %d", tn, got, isoPoolDepth)
		}
		if w := len(b.isoWait[tn]); w != 0 {
			t.Errorf("tenant %d: %d requests still waiting for a credit", tn, w)
		}
	}
}

// TestISORetransmittedReadKeepsOneCredit: a READ whose retransmission
// reaches the responder while the first copy is still executing re-executes
// without taking a second credit, and the pool is full once it completes.
// The 300 ns retry timeout is shorter than the responder's READ pipeline,
// so the duplicate arrives before the first response leaves.
func TestISORetransmittedReadKeepsOneCredit(t *testing.T) {
	eng, a, b, _, _ := linkedRig(t, CX5ISO, 0)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	if err := a.SetQPRetry(1, 300*sim.Nanosecond, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(1, &WQE{WRID: 1, Op: OpRead, RemoteKey: 77,
		RemoteAddr: b.mrs[77].Base, Length: 64}); err != nil {
		t.Fatal(err)
	}
	pool := isoPoolDepth
	minCredits, overlap := pool, false
	isoSample(t, eng, func() bool { return len(comps) == 1 }, func() {
		minCredits = min(minCredits, b.isoCredits[0])
		if b.counters.DupReqs > 0 && b.counters.Responses == 0 {
			overlap = true
		}
	})
	if !overlap {
		t.Fatal("the retransmission never reached the responder while the first copy was executing")
	}
	if minCredits != pool-1 {
		t.Fatalf("credits fell to %d with one READ in flight, want %d", minCredits, pool-1)
	}
	if comps[0].Status != StatusOK || b.isoCredits[0] != pool {
		t.Fatalf("completion %v, %d credits after drain, want OK and %d", comps[0].Status, b.isoCredits[0], pool)
	}
}

// readReplayer is an on-path tap that replays the first READ request it
// sees back onto its own link.
type readReplayer struct {
	link     *fabric.Link
	replayed bool
}

func (r *readReplayer) Observe(_ sim.Time, p fabric.Packet) {
	if m, ok := SnoopPacket(p); ok && !r.replayed && !m.IsResp && m.Op == OpRead {
		cp, _ := ReplayPacket(p)
		r.link.Inject(cp)
		r.replayed = true
	}
}

// TestISOReplayedReadSharesCredit: a replayed READ request names the QP and
// PSN of the READ it copies, as a retransmission does, so the responder
// executes it as a duplicate under the original's credit and the pool is
// full once both have answered.
func TestISOReplayedReadSharesCredit(t *testing.T) {
	eng, a, b, ab, _ := linkedRig(t, CX5ISO, 0)
	ab.SetAdversary(&readReplayer{link: ab})
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	if err := a.PostSend(1, &WQE{WRID: 1, Op: OpRead, RemoteKey: 77,
		RemoteAddr: b.mrs[77].Base, Length: 64}); err != nil {
		t.Fatal(err)
	}
	pool := isoPoolDepth
	minCredits := pool
	isoSample(t, eng, func() bool { return len(comps) == 1 }, func() {
		minCredits = min(minCredits, b.isoCredits[0])
	})
	if got := b.Counters().DupReqs; got != 1 {
		t.Fatalf("DupReqs = %d, want 1: the replay did not reach the responder as a duplicate", got)
	}
	if minCredits != pool-1 {
		t.Fatalf("credits fell to %d with one READ and its replay, want %d", minCredits, pool-1)
	}
	if comps[0].Status != StatusOK || b.isoCredits[0] != pool {
		t.Fatalf("completion %v, %d credits after drain, want OK and %d", comps[0].Status, b.isoCredits[0], pool)
	}
}
