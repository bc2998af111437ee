package appnvmf

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// rig builds a point-to-point cluster with one target queue served.
func rig(t *testing.T, clients int) (*lab.Cluster, *Target, *TargetQueue) {
	t.Helper()
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Clients = clients
	c := lab.New(cfg)
	tgt, err := NewTarget(c.Server, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := tgt.Serve(32)
	if err != nil {
		t.Fatal(err)
	}
	return c, tgt, tq
}

// rawClient is a hand-driven initiator-side endpoint: full control over
// capsule framing for the conformance cases the workload generator would
// never produce.
type rawClient struct {
	qp    *verbs.QP
	mr    *verbs.MR
	comps []Completion
}

func dialRaw(t *testing.T, c *lab.Cluster, client int, tq *TargetQueue) *rawClient {
	t.Helper()
	ctx := c.Clients[client]
	pd := ctx.AllocPD()
	mr, err := pd.RegMR(1<<20, host.Page2M, verbs.AccessRemoteRead|verbs.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	cq := ctx.CreateCQ(0)
	cq.Notify = func(nic.Completion) {}
	qp, err := ctx.CreateQP(pd, cq, verbs.QPCap{MaxSendWR: 64})
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawClient{qp: qp, mr: mr}
	qp.OnRecv = func(ev nic.RecvEvent) {
		if ev.Op != nic.OpSend {
			return
		}
		if comp, err := unmarshalCompletion(ev.Data); err == nil {
			rc.comps = append(rc.comps, comp)
		}
	}
	if err := verbs.Connect(qp, tq.QP()); err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestCapsuleRoundTrip pins the wire format.
func TestCapsuleRoundTrip(t *testing.T) {
	in := Command{Op: CmdWrite, CID: 513, NSID: 1, Offset: 0xdeadbe00,
		Length: 4096, RAddr: 0x7f0000001000, RKey: 0x1007}
	out, err := UnmarshalCommand(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("capsule round trip: got %+v want %+v", out, in)
	}
	if _, err := UnmarshalCommand(in.Marshal()[:16]); err == nil {
		t.Fatal("truncated capsule decoded")
	}
}

// TestReadWriteRoundTrip drives a raw write of arbitrary bytes followed by a
// read of the same range: the payload must survive initiator → staging →
// namespace → initiator, byte for byte.
func TestReadWriteRoundTrip(t *testing.T) {
	c, tgt, tq := rig(t, 1)
	rc := dialRaw(t, c, 0, tq)

	const size, off = 4096, uint64(64 << 10)
	wbuf := rc.mr.Bytes()[:size]
	for i := range wbuf {
		wbuf[i] = byte(i*7 + 3)
	}
	wcmd := Command{Op: CmdWrite, CID: 1, NSID: 1, Offset: off, Length: size,
		RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()}
	if err := rc.qp.PostSend(1, wcmd.Marshal()); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if len(rc.comps) != 1 || rc.comps[0] != (Completion{Status: StatusOK, CID: 1}) {
		t.Fatalf("write completion = %+v", rc.comps)
	}

	// Read the range back into a different slot.
	rcmd := Command{Op: CmdRead, CID: 2, NSID: 1, Offset: off, Length: size,
		RAddr: rc.mr.Addr(size), RKey: rc.mr.RKey()}
	if err := rc.qp.PostSend(2, rcmd.Marshal()); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if len(rc.comps) != 2 || rc.comps[1] != (Completion{Status: StatusOK, CID: 2}) {
		t.Fatalf("read completion = %+v", rc.comps)
	}
	rbuf := rc.mr.Bytes()[size : 2*size]
	for i := range rbuf {
		if rbuf[i] != wbuf[i] {
			t.Fatalf("read byte %d = %#x, want %#x", i, rbuf[i], wbuf[i])
		}
	}
	if tc := tgt.Counters(); tc.Commands != 2 || tc.Reads != 1 || tc.Writes != 1 || tc.BadCapsules != 0 {
		t.Fatalf("target counters = %+v", tc)
	}
}

// TestBadCapsules: every malformed-capsule class is counted and, where a CID
// exists, answered with the right NVMe status — and none of them crash or
// stall the queue for a subsequent well-formed command.
func TestBadCapsules(t *testing.T) {
	c, tgt, tq := rig(t, 1)
	rc := dialRaw(t, c, 0, tq)

	// One capsule per event round: WQEs posted in the same instant may
	// launch in any deterministic order (PSNs are assigned at wire launch),
	// so serialise the rounds to pin the completion sequence.
	post := func(wrid uint64, data []byte) {
		t.Helper()
		if err := rc.qp.PostSend(wrid, data); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	// Unframeable: wrong capsule size (the S/R mismatch frame).
	post(1, make([]byte, 24))
	// Unknown opcode.
	post(2, Command{Op: 0x7f, CID: 9, NSID: 1, Length: 512, Offset: 0,
		RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()}.Marshal())
	// Unknown namespace.
	post(3, Command{Op: CmdRead, CID: 10, NSID: 42, Length: 512,
		RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()}.Marshal())
	// LBA range overrun.
	post(4, Command{Op: CmdRead, CID: 11, NSID: 1, Offset: 4 << 20, Length: 4096,
		RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()}.Marshal())
	if got := tgt.Counters().BadCapsules; got != 4 {
		t.Fatalf("BadCapsules = %d, want 4", got)
	}
	want := []Completion{
		{Status: StatusInvalidField, CID: 9},
		{Status: StatusInvalidField, CID: 10},
		{Status: StatusLBARange, CID: 11},
	}
	if len(rc.comps) != len(want) {
		t.Fatalf("completions = %+v, want %+v", rc.comps, want)
	}
	for i, w := range want {
		if rc.comps[i] != w {
			t.Fatalf("completion %d = %+v, want %+v", i, rc.comps[i], w)
		}
	}

	// The queue still serves.
	good := Command{Op: CmdRead, CID: 12, NSID: 1, Offset: 0, Length: 512,
		RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()}
	if err := rc.qp.PostSend(5, good.Marshal()); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if last := rc.comps[len(rc.comps)-1]; last != (Completion{Status: StatusOK, CID: 12}) {
		t.Fatalf("post-abuse read completion = %+v", last)
	}
	if tgt.Counters().Commands != 1 {
		t.Fatalf("Commands = %d, want 1", tgt.Counters().Commands)
	}
}

// TestOpenLoopWorkload runs the seeded generator and checks the sustained
// storage signature: commands flow at the offered rate, every read payload
// verifies, and both command classes are exercised.
func TestOpenLoopWorkload(t *testing.T) {
	c, tgt, tq := rig(t, 1)
	ini, err := NewInitiator(c.Clients[0], tq, DefaultWorkload(7))
	if err != nil {
		t.Fatal(err)
	}
	ini.Start()
	c.RunFor(2 * sim.Millisecond)
	ini.Stop()
	c.Run()

	st := ini.Stats()
	if st.Completed < 800 {
		t.Fatalf("completed only %d commands in 2 ms", st.Completed)
	}
	if st.DataErrors != 0 || st.ErrStatus != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if ini.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", ini.Outstanding())
	}
	tc := tgt.Counters()
	if tc.Reads == 0 || tc.Writes == 0 {
		t.Fatalf("workload mix degenerate: %+v", tc)
	}
	if tc.BadCapsules != 0 || tq.Errors != 0 {
		t.Fatalf("benign run raised errors: %+v, qerrs %d", tc, tq.Errors)
	}
	if len(ini.Latencies()) != int(st.Completed) {
		t.Fatalf("latencies %d != completed %d", len(ini.Latencies()), st.Completed)
	}
	// Abuse markers structurally zero on a clean fabric.
	sc := c.Server.NIC().Counters()
	if sc.RxBadQP != 0 || sc.InvalidNaks != 0 || sc.InvalidAcks != 0 || sc.RxBadPSN != 0 {
		t.Fatalf("abuse markers nonzero on benign run: %+v", sc)
	}
}

// TestWorkloadDeterminism: same seed, same rig, byte-identical service
// metrics and latency series.
func TestWorkloadDeterminism(t *testing.T) {
	run := func() (InitiatorStats, []float64) {
		c, _, tq := rig(t, 1)
		ini, err := NewInitiator(c.Clients[0], tq, DefaultWorkload(11))
		if err != nil {
			t.Fatal(err)
		}
		ini.Start()
		c.RunFor(500 * sim.Microsecond)
		ini.Stop()
		c.Run()
		return ini.Stats(), ini.Latencies()
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("latency count diverged: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("latency %d diverged: %v vs %v", i, l1[i], l2[i])
		}
	}
}

// TestQueueBound: an initiator offering more than the target queue depth has
// excess commands shed (QueueFull), never queued unboundedly.
func TestQueueBound(t *testing.T) {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Clients = 1
	c := lab.New(cfg)
	tgt, err := NewTarget(c.Server, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := tgt.Serve(2) // tiny target-side bound
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, c, 0, tq)
	// Burst 16 large reads at a depth-2 queue within one event round.
	for i := 0; i < 16; i++ {
		cmd := Command{Op: CmdRead, CID: uint16(i), NSID: 1,
			Offset: uint64(i) * 16384, Length: 16384,
			RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()}
		if err := rc.qp.PostSend(uint64(i+1), cmd.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	tc := tgt.Counters()
	if tc.QueueFull == 0 {
		t.Fatal("depth-2 queue absorbed a 16-deep burst without shedding")
	}
	if tc.QueueFull+uint64(len(rc.comps)) != 16 {
		t.Fatalf("shed %d + completed %d != 16", tc.QueueFull, len(rc.comps))
	}
}

// TestWarmQueueAllocatesNothing: once the target's free lists and the
// NICs' pools have grown, the initiator, the target and the datapath under
// them serve further commands without allocating — capsules, staging
// buffers, ops and pending records are all reused. The latency record is
// reset before each batch, so its growth does not count.
func TestWarmQueueAllocatesNothing(t *testing.T) {
	c, _, tq := rig(t, 1)
	ini, err := NewInitiator(c.Clients[0], tq, DefaultWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	ini.Start()
	c.RunFor(2 * sim.Millisecond)
	const batch = 100 * sim.Microsecond
	before := ini.Stats().Completed
	allocs := testing.AllocsPerRun(20, func() {
		ini.ResetLatencies()
		c.RunFor(batch)
	})
	served := ini.Stats().Completed - before
	if served < 20*50 {
		t.Fatalf("only %d commands served in the measured batches", served)
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocations per %v batch (%.3f per command), want 0",
			allocs, batch, allocs*21/float64(served))
	}
	ini.Stop()
	c.Run()
	if st := ini.Stats(); st.ErrStatus > 0 || st.DataErrors > 0 || tq.Errors > 0 {
		t.Fatalf("stats %+v, target errors %d", st, tq.Errors)
	}
}
