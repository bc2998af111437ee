package verbs

import (
	"bytes"
	"testing"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

// rig builds a client/server pair on CX-4 with one connected QP each side
// and a remotely accessible server MR.
type rig struct {
	eng      *sim.Engine
	client   *Context
	server   *Context
	cq       *CQ
	qp       *QP
	serverMR *MR
}

func newRig(t *testing.T, prof nic.Profile, sqDepth int) *rig {
	t.Helper()
	eng := sim.NewEngine(42)
	client := NewContext(eng, "client", host.H2, prof)
	server := NewContext(eng, "server", host.H3, prof)
	net := NewNetwork(eng)
	net.ConnectContexts(client, server)

	spd := server.AllocPD()
	mr, err := spd.RegMR(2<<20, host.Page2M, AccessRemoteRead|AccessRemoteWrite|AccessRemoteAtomic)
	if err != nil {
		t.Fatal(err)
	}

	cpd := client.AllocPD()
	cq := client.CreateCQ(0)
	qp, err := client.CreateQP(cpd, cq, QPCap{MaxSendWR: sqDepth})
	if err != nil {
		t.Fatal(err)
	}
	scq := server.CreateCQ(0)
	sqp, err := server.CreateQP(spd, scq, QPCap{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Connect(qp, sqp); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, client: client, server: server, cq: cq, qp: qp, serverMR: mr}
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	r := newRig(t, nic.CX4, 16)
	payload := []byte("ragnar end to end payload 012345")
	if err := r.qp.PostWrite(1, payload, r.serverMR.Describe(256), len(payload)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	comps := r.cq.Poll(10)
	if len(comps) != 1 || comps[0].Status != nic.StatusOK || comps[0].WRID != 1 {
		t.Fatalf("write completion = %+v", comps)
	}
	// Server memory actually holds the data.
	got := make([]byte, len(payload))
	r.serverMR.Bytes()[0] = r.serverMR.Bytes()[0] // touch
	copy(got, r.serverMR.Bytes()[256:256+len(payload)])
	if !bytes.Equal(got, payload) {
		t.Fatalf("server memory = %q", got)
	}

	// Read it back over RDMA.
	buf := make([]byte, len(payload))
	if err := r.qp.PostRead(2, buf, r.serverMR.Describe(256), len(buf)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	comps = r.cq.Poll(10)
	if len(comps) != 1 || comps[0].Status != nic.StatusOK {
		t.Fatalf("read completion = %+v", comps)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read back %q", buf)
	}
}

func TestReadLatencyReasonable(t *testing.T) {
	r := newRig(t, nic.CX4, 16)
	if err := r.qp.PostRead(1, nil, r.serverMR.Describe(0), 64); err != nil {
		t.Fatal(err)
	}
	start := r.eng.Now()
	r.eng.Run()
	comp := r.cq.Poll(1)[0]
	lat := comp.DoneTime.Sub(start)
	// A 64 B read RTT on the modelled CX-4 path should land in the
	// single-digit microseconds (real CX-4: ~2 us + software overheads).
	if lat < sim.Microsecond || lat > 20*sim.Microsecond {
		t.Fatalf("64B read latency = %v, want 1-20us", lat)
	}
}

func TestRemoteAccessViolation(t *testing.T) {
	r := newRig(t, nic.CX4, 16)
	// Past the end of the MR.
	if err := r.qp.PostRead(1, nil, r.serverMR.Describe(r.serverMR.Size()-4), 64); err != nil {
		t.Fatal(err)
	}
	// Bad rkey.
	if err := r.qp.PostRead(2, nil, RemoteBuf{RKey: 0xdead, Addr: r.serverMR.Base()}, 64); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	comps := r.cq.Poll(10)
	if len(comps) != 2 {
		t.Fatalf("got %d completions", len(comps))
	}
	for _, c := range comps {
		if c.Status != nic.StatusRemoteAccessError {
			t.Fatalf("completion %d status = %v, want REMOTE_ACCESS_ERROR", c.WRID, c.Status)
		}
	}
}

func TestPermissionEnforcement(t *testing.T) {
	eng := sim.NewEngine(1)
	client := NewContext(eng, "c", host.H2, nic.CX5)
	server := NewContext(eng, "s", host.H3, nic.CX5)
	NewNetwork(eng).ConnectContexts(client, server)
	spd := server.AllocPD()
	roMR, err := spd.RegMR(1<<20, host.Page2M, AccessRemoteRead) // read-only
	if err != nil {
		t.Fatal(err)
	}
	cq := client.CreateCQ(0)
	qp, _ := client.CreateQP(client.AllocPD(), cq, QPCap{})
	sqp, _ := server.CreateQP(spd, server.CreateCQ(0), QPCap{})
	if err := Connect(qp, sqp); err != nil {
		t.Fatal(err)
	}
	qp.PostWrite(1, []byte{1}, roMR.Describe(0), 1)
	qp.PostRead(2, nil, roMR.Describe(0), 8)
	qp.PostAtomicFAA(3, roMR.Describe(0), 1)
	eng.Run()
	comps := cq.Poll(10)
	if len(comps) != 3 {
		t.Fatalf("got %d completions", len(comps))
	}
	byID := map[uint64]nic.Status{}
	for _, c := range comps {
		byID[c.WRID] = c.Status
	}
	if byID[1] != nic.StatusRemoteAccessError {
		t.Error("write to read-only MR should fail")
	}
	if byID[2] != nic.StatusOK {
		t.Error("read from read-only MR should succeed")
	}
	if byID[3] != nic.StatusRemoteAccessError {
		t.Error("atomic on non-atomic MR should fail")
	}
}

func TestAtomicFAAandCAS(t *testing.T) {
	r := newRig(t, nic.CX6, 16)
	// FAA +5 twice.
	r.qp.PostAtomicFAA(1, r.serverMR.Describe(64), 5)
	r.eng.Run()
	r.qp.PostAtomicFAA(2, r.serverMR.Describe(64), 5)
	r.eng.Run()
	comps := r.cq.Poll(10)
	if len(comps) != 2 {
		t.Fatalf("%d completions", len(comps))
	}
	if comps[0].Result != 0 || comps[1].Result != 5 {
		t.Fatalf("FAA results = %d, %d", comps[0].Result, comps[1].Result)
	}
	// CAS: expect 10 -> swap to 99.
	r.qp.PostAtomicCAS(3, r.serverMR.Describe(64), 10, 99)
	r.eng.Run()
	c := r.cq.Poll(1)[0]
	if c.Result != 10 {
		t.Fatalf("CAS original = %d", c.Result)
	}
	// Failed CAS leaves the value.
	r.qp.PostAtomicCAS(4, r.serverMR.Describe(64), 10, 1)
	r.eng.Run()
	c = r.cq.Poll(1)[0]
	if c.Result != 99 {
		t.Fatalf("failed CAS original = %d", c.Result)
	}
}

func TestSendRecv(t *testing.T) {
	eng := sim.NewEngine(1)
	client := NewContext(eng, "c", host.H2, nic.CX5)
	server := NewContext(eng, "s", host.H3, nic.CX5)
	NewNetwork(eng).ConnectContexts(client, server)
	cq := client.CreateCQ(0)
	qp, _ := client.CreateQP(client.AllocPD(), cq, QPCap{})
	sqp, _ := server.CreateQP(server.AllocPD(), server.CreateCQ(0), QPCap{})
	if err := Connect(qp, sqp); err != nil {
		t.Fatal(err)
	}
	recvBuf := make([]byte, 32)
	sqp.PostRecv(recvBuf)
	var got []byte
	sqp.OnRecv = func(ev nic.RecvEvent) {
		got = append([]byte(nil), ev.Data...)
	}
	msg := []byte("shuffle partition 7")
	if err := qp.PostSend(1, msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("recv event data = %q", got)
	}
	if !bytes.Equal(recvBuf[:len(msg)], msg) {
		t.Fatalf("recv buffer = %q", recvBuf[:len(msg)])
	}
	if len(cq.Poll(10)) != 1 {
		t.Fatal("sender missing completion")
	}
}

func TestSQDepthEnforced(t *testing.T) {
	r := newRig(t, nic.CX4, 4)
	for i := 0; i < 4; i++ {
		if err := r.qp.PostRead(uint64(i), nil, r.serverMR.Describe(0), 64); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := r.qp.PostRead(99, nil, r.serverMR.Describe(0), 64); err != ErrSQFull {
		t.Fatalf("5th post error = %v, want ErrSQFull", err)
	}
	if r.qp.Outstanding() != 4 {
		t.Fatalf("outstanding = %d", r.qp.Outstanding())
	}
	r.eng.Run()
	if r.qp.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d", r.qp.Outstanding())
	}
	if err := r.qp.PostRead(100, nil, r.serverMR.Describe(0), 64); err != nil {
		t.Fatalf("post after drain: %v", err)
	}
}

func TestUnconnectedQPErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewContext(eng, "c", host.H2, nic.CX4)
	qp, _ := c.CreateQP(c.AllocPD(), c.CreateCQ(0), QPCap{})
	if err := qp.PostRead(1, nil, RemoteBuf{RKey: 1, Addr: 1}, 8); err == nil {
		t.Fatal("post on unconnected QP should error")
	}
}

func TestGrainCountersPopulate(t *testing.T) {
	r := newRig(t, nic.CX4, 16)
	for i := 0; i < 5; i++ {
		r.qp.PostRead(uint64(i), nil, r.serverMR.Describe(uint64(i*64)), 64)
	}
	r.eng.Run()
	cnt := r.client.NIC().Counters()
	if cnt.TxMsgs[nic.OpRead] != 5 {
		t.Fatalf("client Grain-II read counter = %d", cnt.TxMsgs[nic.OpRead])
	}
	if cnt.PerQPMsgs[r.qp.QPN()] != 5 {
		t.Fatalf("client Grain-III QP counter = %d", cnt.PerQPMsgs[r.qp.QPN()])
	}
	scnt := r.server.NIC().Counters()
	if scnt.PerMRBytes[r.serverMR.RKey()] != 5*64 {
		t.Fatalf("server Grain-III MR counter = %d", scnt.PerMRBytes[r.serverMR.RKey()])
	}
	if scnt.Responses != 5 {
		t.Fatalf("server responses = %d", scnt.Responses)
	}
}

// Pipelined probes complete in submission order and the per-probe latency
// grows with queue depth — the foundation of the ULI metric.
func TestLatencyGrowsWithQueueDepth(t *testing.T) {
	measure := func(depth int) sim.Duration {
		r := newRig(t, nic.CX4, depth+1)
		// Warm the MTT/QPC caches so cold misses don't pollute the
		// queue-depth signal.
		r.qp.PostRead(1000, nil, r.serverMR.Describe(0), 64)
		r.eng.Run()
		r.cq.Poll(1)
		// Fill the queue, then measure the last probe.
		for i := 0; i < depth; i++ {
			r.qp.PostRead(uint64(i), nil, r.serverMR.Describe(0), 64)
		}
		r.qp.PostRead(99, nil, r.serverMR.Describe(0), 64)
		r.eng.Run()
		for _, c := range r.cq.Poll(depth + 1) {
			if c.WRID == 99 {
				return c.DoneTime.Sub(c.PostTime)
			}
		}
		t.Fatal("probe completion missing")
		return 0
	}
	l1 := measure(0)
	l8 := measure(8)
	l32 := measure(32)
	if !(l1 < l8 && l8 < l32) {
		t.Fatalf("latency not increasing with depth: %v %v %v", l1, l8, l32)
	}
	// Linearity: l32-l8 should be roughly 24/7 of l8-l1 (constant ULI).
	uli1 := float64(l8-l1) / 7
	uli2 := float64(l32-l8) / 24
	ratio := uli2 / uli1
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("ULI not roughly constant: %v vs %v", uli1, uli2)
	}
}

func TestSetTCFlowsToCounters(t *testing.T) {
	r := newRig(t, nic.CX5, 8)
	r.qp.SetTC(6)
	if err := r.qp.PostWrite(1, []byte{1, 2, 3, 4}, r.serverMR.Describe(0), 4); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.server.NIC().Counters().RxBytesTC[6] == 0 {
		t.Fatal("traffic class did not propagate to server counters")
	}
}

func TestCQOverrunInvariants(t *testing.T) {
	cases := []struct {
		name         string
		cap          int
		pushes       int
		wantPolled   int
		wantOverruns uint64
	}{
		{"below capacity", 4, 3, 3, 0},
		{"at capacity", 4, 4, 4, 0},
		{"one over", 4, 5, 4, 1},
		{"far over", 2, 9, 2, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			c := NewContext(eng, "c", host.H2, nic.CX4)
			cq := c.CreateCQ(tc.cap)
			for i := 0; i < tc.pushes; i++ {
				cq.push(nic.Completion{WRID: uint64(i)})
			}
			got := cq.Poll(tc.pushes + 1)
			if len(got) != tc.wantPolled {
				t.Fatalf("polled %d CQEs, want %d", len(got), tc.wantPolled)
			}
			// An overrun drops the newcomer: every CQE accepted below
			// capacity survives, in order — nothing is silently lost.
			for i, comp := range got {
				if comp.WRID != uint64(i) {
					t.Fatalf("CQE %d has WRID %d, want %d", i, comp.WRID, i)
				}
			}
			if got := c.NIC().Counters().CQOverruns; got != tc.wantOverruns {
				t.Fatalf("CQOverruns = %d, want %d", got, tc.wantOverruns)
			}
		})
	}
}

// An armed Notify consumer takes every completion straight off the ring:
// nothing queues, nothing overruns, no matter how far past the CQ's
// capacity the burst runs.
func TestCQArmedNotifyNeverOverruns(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewContext(eng, "c", host.H2, nic.CX4)
	cq := c.CreateCQ(2)
	var notified int
	cq.Notify = func(nic.Completion) { notified++ }
	for i := 0; i < 9; i++ {
		cq.push(nic.Completion{WRID: uint64(i)})
	}
	if notified != 9 {
		t.Fatalf("Notify fired %d times, want 9", notified)
	}
	if n := c.NIC().Counters().CQOverruns; n != 0 || cq.Len() != 0 {
		t.Fatalf("armed CQ overran (%d) or buffered (%d)", n, cq.Len())
	}
}

// A QP whose CQ overran must not wedge: the WQEs still retire on the NIC,
// and once the CQ is drained new completions land normally again.
func TestCQOverrunDrainedQPRecovers(t *testing.T) {
	eng := sim.NewEngine(42)
	client := NewContext(eng, "client", host.H2, nic.CX4)
	server := NewContext(eng, "server", host.H3, nic.CX4)
	net := NewNetwork(eng)
	net.ConnectContexts(client, server)

	spd := server.AllocPD()
	mr, err := spd.RegMR(2<<20, host.Page2M, AccessRemoteRead|AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	cpd := client.AllocPD()
	cq := client.CreateCQ(2)
	qp, err := client.CreateQP(cpd, cq, QPCap{MaxSendWR: 16})
	if err != nil {
		t.Fatal(err)
	}
	sqp, err := server.CreateQP(spd, server.CreateCQ(0), QPCap{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Connect(qp, sqp); err != nil {
		t.Fatal(err)
	}

	payload := []byte("01234567")
	for i := 0; i < 6; i++ {
		if err := qp.PostWrite(uint64(i), payload, mr.Describe(0), len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if n := qp.Outstanding(); n != 0 {
		t.Fatalf("QP stuck after CQ overrun: %d WQEs still in flight", n)
	}
	if got := cq.Poll(10); len(got) != 2 {
		t.Fatalf("polled %d CQEs from overrun CQ, want 2", len(got))
	}
	if n := client.NIC().Counters().CQOverruns; n != 4 {
		t.Fatalf("CQOverruns = %d, want 4", n)
	}

	// Drained: the next completions are accepted, and the overrun counter
	// stays put.
	for i := 6; i < 8; i++ {
		if err := qp.PostWrite(uint64(i), payload, mr.Describe(0), len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	got := cq.Poll(10)
	if len(got) != 2 || got[0].WRID != 6 || got[1].WRID != 7 {
		t.Fatalf("post-drain completions = %+v, want WRIDs 6,7", got)
	}
	if n := client.NIC().Counters().CQOverruns; n != 4 {
		t.Fatalf("CQOverruns after recovery = %d, want 4", n)
	}
}

func TestDeregMRRevokesAccess(t *testing.T) {
	r := newRig(t, nic.CX4, 8)
	r.serverMR.DeregMR()
	if err := r.qp.PostRead(1, nil, r.serverMR.Describe(0), 8); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	comps := r.cq.Poll(1)
	if len(comps) != 1 || comps[0].Status != nic.StatusRemoteAccessError {
		t.Fatalf("access after DeregMR: %+v", comps)
	}
}

func TestRemoteBufAt(t *testing.T) {
	rb := RemoteBuf{RKey: 5, Addr: 1000}
	if got := rb.At(24); got.Addr != 1024 || got.RKey != 5 {
		t.Fatalf("At = %+v", got)
	}
}

// TestDeregMRWithTrafficInFlight deregisters the target MR 2 µs after an
// 8 B request to offset 4096 was posted, while the request is inside the
// responder pipeline: past the MR check, before its data moves. The access
// must fail with REMOTE_ACCESS_ERROR; it used to index the freed region's
// nil backing and panic the simulator.
func TestDeregMRWithTrafficInFlight(t *testing.T) {
	post := map[string]func(r *rig, remote RemoteBuf) error{
		"write": func(r *rig, remote RemoteBuf) error {
			return r.qp.PostWrite(1, []byte("8 bytes!"), remote, 8)
		},
		"read": func(r *rig, remote RemoteBuf) error {
			return r.qp.PostRead(1, make([]byte, 8), remote, 8)
		},
		"atomic": func(r *rig, remote RemoteBuf) error {
			return r.qp.PostAtomicFAA(1, remote, 1)
		},
	}
	for _, name := range []string{"write", "read", "atomic"} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, nic.CX4, 16)
			if err := post[name](r, r.serverMR.Describe(4096)); err != nil {
				t.Fatal(err)
			}
			r.eng.RunFor(2 * sim.Microsecond)
			r.serverMR.DeregMR()
			r.eng.Run()
			comps := r.cq.Poll(10)
			if len(comps) != 1 || comps[0].Status != nic.StatusRemoteAccessError {
				t.Fatalf("completions %+v, want one REMOTE_ACCESS_ERROR", comps)
			}
		})
	}
}

// TestCQAwait: Await returns the awaited WRID's completion, failed ones
// included, drops the other completions that arrive while it runs, puts the
// previous Notify back, and reports an engine that drains without the CQE.
func TestCQAwait(t *testing.T) {
	r := newRig(t, nic.CX4, 16)
	var seen []uint64
	prev := func(c nic.Completion) { seen = append(seen, c.WRID) }
	r.cq.Notify = prev
	for wrid := uint64(1); wrid <= 3; wrid++ {
		if err := r.qp.PostRead(wrid, nil, r.serverMR.Describe(0), 64); err != nil {
			t.Fatal(err)
		}
	}
	c, ok := r.cq.Await(2)
	if !ok || c.WRID != 2 || c.Status != nic.StatusOK {
		t.Fatalf("Await(2) = %+v, %v", c, ok)
	}
	if len(seen) != 0 {
		t.Fatalf("completions reached the previous Notify while awaiting: %v", seen)
	}
	r.eng.Run() // WRID 3 completes after Await returned
	if len(seen) != 1 || seen[0] != 3 {
		t.Fatalf("previous Notify saw %v, want [3]", seen)
	}

	if err := r.qp.PostRead(4, nil, r.serverMR.Describe(r.serverMR.Size()), 64); err != nil {
		t.Fatal(err)
	}
	if c, ok := r.cq.Await(4); !ok || c.Status == nic.StatusOK {
		t.Fatalf("out-of-bounds Await(4) = %+v, %v; want its failed CQE", c, ok)
	}
	if _, ok := r.cq.Await(5); ok {
		t.Fatal("Await of a WRID never posted reported a completion")
	}
}
