package rednlite

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

type rig struct {
	eng      *sim.Engine
	client   *verbs.Context
	serverMR *verbs.MR
	main     *Lane
	branch   *Lane
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(42)
	client := verbs.NewContext(eng, "client", host.H2, nic.CX5)
	server := verbs.NewContext(eng, "server", host.H3, nic.CX5)
	net := verbs.NewNetwork(eng)
	net.ConnectContexts(client, server)
	spd := server.AllocPD()
	mr, err := spd.RegMR(2<<20, host.Page2M,
		verbs.AccessRemoteRead|verbs.AccessRemoteWrite|verbs.AccessRemoteAtomic)
	if err != nil {
		t.Fatal(err)
	}
	cpd := client.AllocPD()
	dial := func(depth int, code *verbs.MR) *Lane {
		cq := client.CreateCQ(0)
		qp, err := client.CreateQP(cpd, cq, verbs.QPCap{MaxSendWR: depth})
		if err != nil {
			t.Fatal(err)
		}
		sqp, err := server.CreateQP(spd, server.CreateCQ(0), verbs.QPCap{})
		if err != nil {
			t.Fatal(err)
		}
		if err := verbs.Connect(qp, sqp); err != nil {
			t.Fatal(err)
		}
		lane, err := NewLane(qp, cq, code)
		if err != nil {
			t.Fatal(err)
		}
		return lane
	}
	code, err := cpd.RegMR(4096, host.Page4K, verbs.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		eng:      eng,
		client:   client,
		serverMR: mr,
		main:     dial(64, nil),
		branch:   dial(64, code),
	}
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func runIf(t *testing.T, taken bool) (*rig, int) {
	t.Helper()
	r := newRig(t)
	const expect = uint64(7)
	flag := expect
	if !taken {
		flag = FalseFloor
	}
	put64(r.serverMR.Bytes()[0:8], flag)

	br, err := NewBranch(r.branch)
	if err != nil {
		t.Fatal(err)
	}
	br.Loop(2, func(c *Chain) {
		off := uint64(4096 + 512*c.Len())
		c.Write([]byte("branch-body-data"), r.serverMR.Describe(off), 16)
	})
	main := New(r.main)
	main.If(r.serverMR.Describe(0), expect, br)
	if err := main.Launch(); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	// The main chain always retires fully: CAS, two barriers, the gate
	// read and the enable — 5 completions either way.
	var comps [16]nic.Completion
	if n := r.main.CQ.PollInto(comps[:]); n != 5 {
		t.Fatalf("main chain completions = %d, want 5", n)
	}
	return r, r.branch.CQ.PollInto(comps[:])
}

func TestIfTaken(t *testing.T) {
	r, branchComps := runIf(t, true)
	// Gate WAIT + 2 iterations of (write + barrier).
	if branchComps != 5 {
		t.Fatalf("taken branch completions = %d, want 5", branchComps)
	}
	for _, off := range []int{4096 + 512*1, 4096 + 512*3} {
		if got := string(r.serverMR.Bytes()[off : off+16]); got != "branch-body-data" {
			t.Fatalf("branch write at %d = %q", off, got)
		}
	}
	// Taken: the CAS consumed the flag.
	if got := le64(r.serverMR.Bytes()[0:8]); got != 0 {
		t.Fatalf("flag after taken branch = %d, want 0", got)
	}
}

func TestIfNotTaken(t *testing.T) {
	r, branchComps := runIf(t, false)
	if branchComps != 0 {
		t.Fatalf("not-taken branch completions = %d, want 0 (gate must park)", branchComps)
	}
	for _, off := range []int{4096 + 512*1, 4096 + 512*3} {
		for _, b := range r.serverMR.Bytes()[off : off+16] {
			if b != 0 {
				t.Fatalf("not-taken branch body wrote server memory at %d", off)
			}
		}
	}
}

func TestChase(t *testing.T) {
	r := newRig(t)
	base := r.serverMR.Base()
	// Linked list: node0@0 -> node1@512 -> node2@1024 (next at +0, value at +8).
	put64(r.serverMR.Bytes()[0:8], base+512)
	put64(r.serverMR.Bytes()[8:16], 111)
	put64(r.serverMR.Bytes()[512:520], base+1024)
	put64(r.serverMR.Bytes()[520:528], 222)
	put64(r.serverMR.Bytes()[1024:1032], 0)
	put64(r.serverMR.Bytes()[1032:1040], 333)

	pd := r.client.AllocPD()
	dst, err := pd.RegMR(4096, host.Page4K, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.branch)
	c.Chase(r.serverMR.Describe(0), 2, dst, 64)
	if err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if got := le64(dst.Bytes()[72:80]); got != 333 {
		t.Fatalf("chase landed value %d, want 333 (two hops from head)", got)
	}
	// Every staged entry retired: the chain self-enabled to the end.
	if staged, enabled := r.branch.QP.SQDepth(); staged != 0 || enabled != 0 {
		t.Fatalf("chase SQ not drained: staged=%d enabled=%d", staged, enabled)
	}
}

func TestFreshLaneRequired(t *testing.T) {
	r := newRig(t)
	if err := r.main.QP.StageWrite(1, []byte("x"), r.serverMR.Describe(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := New(r.main).Err(); err == nil {
		t.Fatal("New on a lane with staged entries must error")
	}
}
