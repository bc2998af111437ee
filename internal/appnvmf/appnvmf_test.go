package appnvmf

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// TestNamespaceIsPatternUntilForeignWrite: a namespace written only with its
// own pattern is never stored, and costs its target nothing to set up; the
// first write of other bytes stores it, and both that range and the rest
// read back right.
func TestNamespaceIsPatternUntilForeignWrite(t *testing.T) {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Clients = 1
	c := lab.New(cfg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tgt, err := NewTarget(c.Server, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := tgt.Serve(64)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewTarget and Serve allocated %d bytes, want under 64 KiB", got)
	}

	ini, err := NewInitiator(c.Clients[0], tq, DefaultWorkload(5))
	if err != nil {
		t.Fatal(err)
	}
	ini.Start()
	c.RunFor(sim.Millisecond)
	ini.Stop()
	c.Run()
	ns := tgt.namespace(1)
	if st := ini.Stats(); st.Completed == 0 || st.DataErrors != 0 || st.ErrStatus != 0 || tq.Errors != 0 {
		t.Fatalf("benign run: stats %+v, target errors %d", st, tq.Errors)
	}
	if tc := tgt.Counters(); tc.Writes == 0 {
		t.Fatalf("benign run wrote nothing: %+v", tc)
	}
	if ns.stored {
		t.Fatal("pattern-only writes stored the namespace")
	}

	// A raw write of other bytes, on a second queue.
	tq2, err := tgt.Serve(32)
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, c, 0, tq2)
	const size, off = 4096, uint64(64<<10 + 24)
	wbuf := rc.mr.Bytes()[:size]
	for i := range wbuf {
		wbuf[i] = byte(i*7 + 3)
	}
	post := func(cmd Command) {
		t.Helper()
		if err := rc.qp.PostSend(uint64(cmd.CID), cmd.Marshal()); err != nil {
			t.Fatal(err)
		}
		c.Run()
		if last := rc.comps[len(rc.comps)-1]; last != (Completion{Status: StatusOK, CID: cmd.CID}) {
			t.Fatalf("completion = %+v", last)
		}
	}
	post(Command{Op: CmdWrite, CID: 1, NSID: 1, Offset: off, Length: size,
		RAddr: rc.mr.Addr(0), RKey: rc.mr.RKey()})
	if !ns.stored {
		t.Fatal("a write of other bytes left the namespace unstored")
	}
	post(Command{Op: CmdRead, CID: 2, NSID: 1, Offset: off, Length: size,
		RAddr: rc.mr.Addr(size), RKey: rc.mr.RKey()})
	if rbuf := rc.mr.Bytes()[size : 2*size]; !bytes.Equal(rbuf, wbuf) {
		t.Fatal("the written range did not read back as written")
	}
	const other = uint64(1 << 20)
	post(Command{Op: CmdRead, CID: 3, NSID: 1, Offset: other, Length: size,
		RAddr: rc.mr.Addr(2 * size), RKey: rc.mr.RKey()})
	if !CheckPattern(rc.mr.Bytes()[2*size:3*size], 1, other) {
		t.Fatal("a range no write touched lost its pattern once the namespace was stored")
	}
}

// refFillPatternAt and refCheckPattern are the pattern loops as first
// written, one word per iteration: the reference the kernels must match.
func refFillPatternAt(b []byte, salt uint32, off uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], (off+uint64(i))^(uint64(salt)<<56))
	}
}

func refCheckPattern(b []byte, salt uint32, off uint64) bool {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != (off+uint64(i))^(uint64(salt)<<56) {
			return false
		}
	}
	return true
}

// refRange is what FillPattern puts at [off, off+n) of a namespace: the
// reference fill of the whole words around the range, sliced.
func refRange(salt uint32, off uint64, n int) []byte {
	base := off &^ 7
	buf := make([]byte, (off-base+uint64(n)+7)&^7)
	refFillPatternAt(buf, salt, base)
	return buf[off-base:][:n]
}

// FuzzNamespacePattern checks an unstored namespace's reads, the
// pattern-equality check on writes and the two pattern kernels against the
// byte-wise reference, at any offset (past 2^56 included) and length, and
// that one flipped byte fails the checks.
func FuzzNamespacePattern(f *testing.F) {
	f.Add(uint64(0), uint16(4096), uint32(1), uint32(0))
	f.Add(uint64(3), uint16(13), uint32(1), uint32(0x0501))
	// A flipped word that an OR of unparenthesised x^w terms misses.
	f.Add(uint64(65434), uint16(517), uint32(0), uint32(0x1080))
	f.Add(uint64(1<<56-20), uint16(96), uint32(7), uint32(0x2aff))
	f.Fuzz(func(t *testing.T, off uint64, n uint16, salt uint32, flip uint32) {
		want := refRange(salt, off, int(n))
		ns := &namespace{salt: salt}
		got := make([]byte, n)
		ns.read(got, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("read [%d,+%d) salt %d:\n got %x\nwant %x", off, n, salt, got, want)
		}
		if !isPattern(got, salt, off) {
			t.Fatalf("read [%d,+%d) salt %d is not its own pattern", off, n, salt)
		}
		ns.write(got, off) // an unstored namespace has no MR bytes to touch
		if ns.stored {
			t.Fatal("a write of the pattern stored the namespace")
		}

		fill, ref := make([]byte, n), make([]byte, n)
		FillPatternAt(fill, salt, off)
		refFillPatternAt(ref, salt, off)
		if !bytes.Equal(fill, ref) {
			t.Fatalf("FillPatternAt at %d salt %d:\n got %x\nwant %x", off, salt, fill, ref)
		}
		if !CheckPattern(ref, salt, off) {
			t.Fatalf("CheckPattern rejects the pattern at %d salt %d", off, salt)
		}

		if n == 0 {
			return
		}
		pos, mask := int(flip>>8)%int(n), byte(flip)
		if mask == 0 {
			mask = 0x80
		}
		got[pos] ^= mask
		if isPattern(got, salt, off) {
			t.Fatalf("byte %d flipped by %#x passes the pattern-equality check", pos, mask)
		}
		ref[pos] ^= mask
		if g, w := CheckPattern(ref, salt, off), refCheckPattern(ref, salt, off); g != w {
			t.Fatalf("byte %d of %d flipped by %#x: CheckPattern %v, reference %v", pos, n, mask, g, w)
		}
	})
}
