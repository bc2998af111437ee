package verbs

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

func TestPollIntoDrainsInOrder(t *testing.T) {
	r := newRig(t, nic.CX5, 16)
	for i := 1; i <= 5; i++ {
		if err := r.qp.PostRead(uint64(i), nil, r.serverMR.Describe(0), 8); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	var dst [2]nic.Completion
	var got []uint64
	for {
		n := r.cq.PollInto(dst[:])
		if n == 0 {
			break
		}
		for _, c := range dst[:n] {
			got = append(got, c.WRID)
		}
	}
	if len(got) != 5 {
		t.Fatalf("drained %d completions, want 5", len(got))
	}
	for i, wrid := range got {
		if wrid != uint64(i+1) {
			t.Fatalf("completion order %v, want 1..5", got)
		}
	}
	if n := r.cq.PollInto(dst[:]); n != 0 || r.cq.Len() != 0 {
		t.Fatalf("drained CQ still yields entries (n=%d len=%d)", n, r.cq.Len())
	}
}

// BenchmarkCQPollInto is the allocation gate behind the PollInto hot path:
// a steady-state fill/drain cycle must not allocate (`make benchguard`).
func BenchmarkCQPollInto(b *testing.B) {
	eng := sim.NewEngine(1)
	ctx := NewContext(eng, "bench", host.H2, nic.CX5)
	cq := ctx.CreateCQ(256)
	backing := make([]nic.Completion, 64)
	for i := range backing {
		backing[i] = nic.Completion{WRID: uint64(i + 1), Status: nic.StatusOK}
	}
	var dst [64]nic.Completion
	cq.entries = append(cq.entries, backing...)
	cq.PollInto(dst[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cq.entries = append(cq.entries[:0], backing...)
		if n := cq.PollInto(dst[:]); n != len(backing) {
			b.Fatalf("drained %d, want %d", n, len(backing))
		}
	}
}

// threeQPs wires one client QP and two server QPs on a shared rig, the
// minimal topology for reconnect/teardown aliasing bugs.
func threeQPs(t *testing.T) (eng *sim.Engine, a, b, c *QP) {
	t.Helper()
	eng = sim.NewEngine(9)
	client := NewContext(eng, "client", host.H2, nic.CX5)
	server := NewContext(eng, "server", host.H3, nic.CX5)
	NewNetwork(eng).ConnectContexts(client, server)
	var err error
	a, err = client.CreateQP(client.AllocPD(), client.CreateCQ(0), QPCap{})
	if err != nil {
		t.Fatal(err)
	}
	spd := server.AllocPD()
	b, err = server.CreateQP(spd, server.CreateCQ(0), QPCap{})
	if err != nil {
		t.Fatal(err)
	}
	c, err = server.CreateQP(spd, server.CreateCQ(0), QPCap{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, b, c
}

// TestReconnectDetachesOldPeer pins the Connect fix: moving a connection to
// a new peer clears the old peer's back-pointer, so the old endpoint knows
// it is no longer connected instead of posting into a dead connection.
func TestReconnectDetachesOldPeer(t *testing.T) {
	_, a, b, c := threeQPs(t)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := Connect(a, c); err != nil {
		t.Fatal(err)
	}
	if a.peer != c || c.peer != a {
		t.Fatal("reconnect did not bind the new pair")
	}
	if b.peer != nil {
		t.Fatal("old peer still holds a dangling back-pointer after reconnect")
	}
	if err := b.PostRead(1, nil, RemoteBuf{RKey: 1, Addr: 0}, 8); err == nil {
		t.Fatal("post on a detached QP must fail")
	}
}

// TestDestroyClearsBothSides pins the Destroy fix: tearing a QP down clears
// the peer's back-pointer too — but only when the peer still points at the
// destroyed QP, so destroying a stale endpoint cannot sever a live
// connection it is no longer part of.
func TestDestroyClearsBothSides(t *testing.T) {
	_, a, b, _ := threeQPs(t)
	if err := Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Destroy(); err != nil {
		t.Fatal(err)
	}
	if b.peer != nil {
		t.Fatal("peer still believes itself connected after the other side was destroyed")
	}
	if err := b.PostRead(1, nil, RemoteBuf{RKey: 1, Addr: 0}, 8); err == nil {
		t.Fatal("post on a half-destroyed connection must fail")
	}

	// The guard: a's stale sibling being destroyed must not touch b's new
	// connection.
	_, a2, b2, c2 := threeQPs(t)
	if err := Connect(a2, b2); err != nil {
		t.Fatal(err)
	}
	if err := Connect(c2, b2); err != nil {
		t.Fatal(err)
	}
	if err := a2.Destroy(); err != nil {
		t.Fatal(err)
	}
	if b2.peer != c2 || c2.peer != b2 {
		t.Fatal("destroying a stale endpoint severed the live connection")
	}
}

// TestMRAccessFlagMatrix pins responder-side MR permission enforcement end
// to end: every (access flags, opcode) pair either completes OK or draws a
// remote-access NAK, exactly per the registered flags.
func TestMRAccessFlagMatrix(t *testing.T) {
	type op struct {
		name string
		post func(qp *QP, wrid uint64, remote RemoteBuf) error
	}
	ops := []op{
		{"read", func(qp *QP, wrid uint64, remote RemoteBuf) error {
			return qp.PostRead(wrid, nil, remote, 8)
		}},
		{"write", func(qp *QP, wrid uint64, remote RemoteBuf) error {
			return qp.PostWrite(wrid, []byte("12345678"), remote, 8)
		}},
		{"faa", func(qp *QP, wrid uint64, remote RemoteBuf) error {
			return qp.PostAtomicFAA(wrid, remote, 1)
		}},
		{"cas", func(qp *QP, wrid uint64, remote RemoteBuf) error {
			return qp.PostAtomicCAS(wrid, remote, 0, 1)
		}},
	}
	cases := []struct {
		name   string
		access Access
		ok     map[string]bool
	}{
		{"read-only", AccessRemoteRead,
			map[string]bool{"read": true, "write": false, "faa": false, "cas": false}},
		{"write-only", AccessRemoteWrite,
			map[string]bool{"read": false, "write": true, "faa": false, "cas": false}},
		{"atomic-only", AccessRemoteAtomic,
			map[string]bool{"read": false, "write": false, "faa": true, "cas": true}},
		{"read-write", AccessRemoteRead | AccessRemoteWrite,
			map[string]bool{"read": true, "write": true, "faa": false, "cas": false}},
		{"all", AccessRemoteRead | AccessRemoteWrite | AccessRemoteAtomic,
			map[string]bool{"read": true, "write": true, "faa": true, "cas": true}},
		{"none", 0,
			map[string]bool{"read": false, "write": false, "faa": false, "cas": false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(3)
			client := NewContext(eng, "client", host.H2, nic.CX5)
			server := NewContext(eng, "server", host.H3, nic.CX5)
			NewNetwork(eng).ConnectContexts(client, server)
			spd := server.AllocPD()
			mr, err := spd.RegMR(1<<20, host.Page2M, tc.access)
			if err != nil {
				t.Fatal(err)
			}
			cq := client.CreateCQ(0)
			qp, err := client.CreateQP(client.AllocPD(), cq, QPCap{})
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
			for i, o := range ops {
				if err := o.post(qp, uint64(i+1), mr.Describe(64)); err != nil {
					t.Fatalf("%s: post failed: %v", o.name, err)
				}
			}
			eng.Run()
			var dst [8]nic.Completion
			n := cq.PollInto(dst[:])
			if n != len(ops) {
				t.Fatalf("got %d completions, want %d", n, len(ops))
			}
			byID := map[uint64]nic.Status{}
			for _, c := range dst[:n] {
				byID[c.WRID] = c.Status
			}
			for i, o := range ops {
				want := nic.StatusRemoteAccessError
				if tc.ok[o.name] {
					want = nic.StatusOK
				}
				if got := byID[uint64(i+1)]; got != want {
					t.Errorf("%s on %s MR: status %v, want %v", o.name, tc.name, got, want)
				}
			}
		})
	}
}
