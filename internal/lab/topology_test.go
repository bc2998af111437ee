package lab

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/verbs"
)

// readOnce dials client i, warms it, posts one read and returns its latency.
func readOnce(t *testing.T, c *Topology, mr *verbs.MR, i int) sim.Duration {
	t.Helper()
	conn, err := c.Dial(i, 8)
	if err != nil {
		t.Fatalf("dial %d: %v", i, err)
	}
	if err := c.Warm(conn, mr); err != nil {
		t.Fatalf("warm %d: %v", i, err)
	}
	if err := conn.QP.PostRead(1, nil, mr.Describe(0), 256); err != nil {
		t.Fatalf("read %d: %v", i, err)
	}
	c.Eng.Run()
	comps := conn.CQ.Poll(4)
	if len(comps) != 1 || comps[0].Status != nic.StatusOK {
		t.Fatalf("client %d completion: %+v", i, comps)
	}
	return comps[0].DoneTime.Sub(comps[0].PostTime)
}

func TestStarWiring(t *testing.T) {
	cfg := DefaultConfig(nic.CX5)
	cfg.Clients = 3
	c := Star(cfg)
	if len(c.Switches) != 1 || c.Switches[0].NumPorts() != 4 {
		t.Fatalf("star: %d switches, %d ports", len(c.Switches), c.Switches[0].NumPorts())
	}
	// Two links per attached host: uplink + switch egress.
	if len(c.Links) != 8 {
		t.Fatalf("star links = %d, want 8", len(c.Links))
	}
	mr, err := c.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Clients {
		readOnce(t, c, mr, i)
	}
	if c.Switches[0].FwdPackets() == 0 {
		t.Fatal("no packets traversed the switch")
	}
	if c.Switches[0].Unroutable() != 0 {
		t.Fatalf("%d unroutable packets", c.Switches[0].Unroutable())
	}
	if c.Switches[0].BufUsed() != 0 {
		t.Fatalf("switch buffer not drained: %d bytes", c.Switches[0].BufUsed())
	}
}

func TestStarDeterminism(t *testing.T) {
	run := func() sim.Duration {
		cfg := DefaultConfig(nic.CX5)
		cfg.Seed = 7
		cfg.Clients = 3
		c := Star(cfg)
		mr, _ := c.RegisterServerMR(1 << 20)
		return readOnce(t, c, mr, 2)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed stars diverge: %v vs %v", a, b)
	}
}

// TestStarFaultsEverySegment is the satellite check that InjectLoss now
// reaches every segment of a switched topology: host uplinks AND switch
// egress ports, not just the fixed point-to-point list.
func TestStarFaultsEverySegment(t *testing.T) {
	cfg := DefaultConfig(nic.CX5)
	cfg.Clients = 3
	c := Star(cfg)
	c.InjectLoss(42, 0.05)
	if len(c.Links) == 0 {
		t.Fatal("no links")
	}
	for i, l := range c.Links {
		if !l.HasFaultPlan() {
			t.Fatalf("link %d (%s) has no fault plan", i, l.Name())
		}
	}
	// Switch egress ports are in the Links list (same *Link values).
	for _, sw := range c.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			if !sw.EgressLink(p).HasFaultPlan() {
				t.Fatalf("switch port %d missed by InjectLoss", p)
			}
		}
	}
	// Lossy traffic still completes through RC retransmission.
	mr, err := c.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.QP.SetRetry(10*sim.Microsecond, 1000); err != nil {
		t.Fatal(err)
	}
	if err := conn.ServerQP().SetRetry(10*sim.Microsecond, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := conn.QP.PostRead(uint64(i), nil, mr.Describe(0), 1024); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	comps := conn.CQ.Poll(64)
	if len(comps) != 50 {
		t.Fatalf("completed %d of 50 reads under loss", len(comps))
	}
	for _, cm := range comps {
		if cm.Status != nic.StatusOK {
			t.Fatalf("completion status %v", cm.Status)
		}
	}
	// Clearing removes every plan again.
	c.InjectLoss(0, 0)
	for i, l := range c.Links {
		if l.HasFaultPlan() {
			t.Fatalf("link %d still has a plan after clear", i)
		}
	}
}

// TestPairLatencyRegression pins the exact post→completion latency of a
// Pair-topology read, measured before the topology refactor. The experiment
// goldens (fig4–fig13, table5, lossgrid) assert the same property en masse;
// this is the focused canary that fails first if Pair construction order —
// and therefore the event/RNG schedule — ever drifts from the legacy
// Cluster.
func TestPairLatencyRegression(t *testing.T) {
	cfg := DefaultConfig(nic.CX5)
	cfg.Seed = 99
	c := Pair(cfg)
	mr, _ := c.RegisterServerMR(1 << 20)
	conn, _ := c.Dial(0, 8)
	c.Warm(conn, mr)
	conn.QP.PostRead(7, nil, mr.Describe(128), 256)
	c.Eng.Run()
	comp := conn.CQ.Poll(1)[0]
	got := comp.DoneTime.Sub(comp.PostTime)
	// Value captured from the pre-refactor lab.New on the same seed/config.
	const want = sim.Duration(2045825) // 2045.825 ns, in picoseconds
	if got != want {
		t.Fatalf("pair read latency = %d ps, want %d ps (legacy cluster schedule)", int64(got), int64(want))
	}
}

// TestStarTracing checks a switched rig records switch activity and that
// tracing stays passive (traced latency == untraced latency).
func TestStarTracing(t *testing.T) {
	run := func(rec *trace.Recorder) sim.Duration {
		cfg := DefaultConfig(nic.CX5)
		cfg.Clients = 2
		c := Star(cfg)
		if rec != nil {
			c.AttachRecorder(rec)
		}
		mr, _ := c.RegisterServerMR(1 << 20)
		return readOnce(t, c, mr, 1)
	}
	rec := trace.NewRecorder("star", 1<<14)
	traced := run(rec)
	untraced := run(nil)
	if traced != untraced {
		t.Fatalf("tracing perturbed the run: %v vs %v", traced, untraced)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
}
