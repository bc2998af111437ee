package lab

import (
	"fmt"
	"strings"
	"testing"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

// closRun builds the given Clos, drives a cross-leaf workload of mixed
// reads and writes from every client, and folds every observable — each
// completion's virtual timestamp, switch forwarding and PFC counters, NIC
// counters, a failed drain check — into one string, so two runs of one
// config must produce the same string.
func closRun(cfg ClosConfig) (string, error) {
	c := Clos(cfg)
	mr, err := c.RegisterServerMR(4 << 20)
	if err != nil {
		return "", err
	}
	sizes := []int{64, 4096, 512, 65536, 1024, 256}
	conns := make([]*Conn, len(c.Clients))
	for i := range c.Clients {
		if conns[i], err = c.Dial(i, len(sizes)+2); err != nil {
			return "", err
		}
	}
	for i, conn := range conns {
		for j, sz := range sizes {
			target := mr.Describe(uint64(i) * (64 << 10))
			if j%2 == 0 {
				err = conn.QP.PostRead(uint64(j), nil, target, sz)
			} else {
				err = conn.QP.PostWrite(uint64(j), nil, target, sz)
			}
			if err != nil {
				return "", err
			}
		}
	}
	c.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "now=%d\n", c.Now())
	for i, conn := range conns {
		fmt.Fprintf(&b, "client%d:", i)
		for _, comp := range conn.CQ.Poll(conn.CQ.Len()) {
			fmt.Fprintf(&b, " %d@%d/%d", comp.WRID, comp.DoneTime, comp.Status)
		}
		cnt := c.Clients[i].NIC().Counters()
		fmt.Fprintf(&b, " tx=%d rx=%d rtx=%d\n", cnt.TxBytes, cnt.RxBytes, cnt.Retransmits)
	}
	for _, sw := range c.Switches {
		var pfc uint64
		for tc := 0; tc < fabric.NumTCs; tc++ {
			pfc += sw.PFCPauses(tc)
		}
		fmt.Fprintf(&b, "%s: fwd=%d/%d pfc=%d\n", sw.Name(), sw.FwdPackets(), sw.FwdBytes(), pfc)
	}
	if err := c.DrainCheck(); err != nil {
		fmt.Fprintf(&b, "drain: %v\n", err)
	}
	return b.String(), nil
}

func smallClos() ClosConfig {
	return ClosConfig{
		Seed: 7, Profile: nic.CX5,
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
	}
}

// TestClosRunToRunDeterministic pins that a Clos run is reproducible
// against itself, and that its workload reaches every client and drains.
func TestClosRunToRunDeterministic(t *testing.T) {
	a, err := closRun(smallClos())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a, "client2:") || strings.Contains(a, "drain:") {
		t.Fatalf("run looks broken:\n%s", a)
	}
	b, err := closRun(smallClos())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestClosECMPSpreadsAcrossSpines: with several clients on a foreign leaf
// all talking to the server, flow hashing must light up every spine.
func TestClosECMPSpreadsAcrossSpines(t *testing.T) {
	cfg := ClosConfig{Seed: 3, Profile: nic.CX5, Leaves: 2, Spines: 2, HostsPerLeaf: 5}
	c := Clos(cfg)
	mr, err := c.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Clients {
		conn, err := c.Dial(i, 4)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			if err := conn.QP.PostRead(uint64(w), nil, mr.Describe(0), 2048); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run()
	for _, sw := range c.Switches[cfg.Leaves:] {
		if sw.FwdPackets() == 0 {
			t.Errorf("ECMP left %s idle — all flows hashed onto one spine", sw.Name())
		}
	}
}

// FuzzClosShape runs random fabric shapes twice each: both runs of any
// (leaves, spines, hosts, seed) combination must drain and match byte for
// byte.
func FuzzClosShape(f *testing.F) {
	f.Add(int8(2), int8(2), int8(2), int64(7))
	f.Add(int8(3), int8(1), int8(1), int64(1))
	f.Add(int8(1), int8(2), int8(2), int64(42))
	f.Fuzz(func(t *testing.T, leaves, spines, hosts int8, seed int64) {
		abs := func(v int8) int {
			if v < 0 {
				return -int(v)
			}
			return int(v)
		}
		cfg := ClosConfig{
			Seed: seed, Profile: nic.CX5,
			Leaves:       abs(leaves)%3 + 1,
			Spines:       abs(spines)%2 + 1,
			HostsPerLeaf: abs(hosts)%2 + 1,
		}
		want, err := closRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(want, "drain:") {
			t.Fatalf("leaves=%d spines=%d hosts=%d seed=%d did not drain:\n%s",
				cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf, seed, want)
		}
		got, err := closRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("leaves=%d spines=%d hosts=%d seed=%d: two runs diverged:\n--- first ---\n%s--- second ---\n%s",
				cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf, seed, want, got)
		}
	})
}

// TestInjectLossDecorrelated is the fault-injection regression: InjectLoss
// must derive each per-link stream with sim.DeriveSeed(seed, linkIndex), so
// two links fed identical traffic drop DIFFERENT packets. (A correlated
// version — every link seeded with the bare experiment seed — would drop
// the same packet indices on every link, hiding loss-pattern diversity
// from the loss-grid experiments.)
func TestInjectLossDecorrelated(t *testing.T) {
	eng := sim.NewEngine(1)
	const packets = 400
	delivered := make([]map[int]bool, 2)
	links := make([]*fabric.Link, 2)
	for i := range links {
		i := i
		delivered[i] = map[int]bool{}
		links[i] = fabric.NewLink(eng, fmt.Sprintf("l%d", i), 100, 100*sim.Nanosecond, 0,
			func(p fabric.Packet) { delivered[i][int(p.Dst)] = true })
	}
	c := &Cluster{Eng: eng, Links: links}
	c.InjectLoss(42, 0.3)

	for n := 0; n < packets; n++ {
		for _, l := range links {
			if err := l.Send(fabric.Packet{TC: 0, Bytes: 256, Dst: uint32(n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()

	same := true
	for n := 0; n < packets; n++ {
		if delivered[0][n] != delivered[1][n] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("both links dropped the exact same packet indices — per-link fault RNGs are correlated")
	}
	for i, d := range delivered {
		if lost := packets - len(d); lost == 0 || lost == packets {
			t.Fatalf("link %d lost %d/%d packets — fault plan not active or degenerate", i, lost, packets)
		}
	}
	// prob 0 removes the plans.
	c.InjectLoss(42, 0)
	if err := links[0].Send(fabric.Packet{TC: 0, Bytes: 64, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}
