package telemetry

import (
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/traffic"
)

func TestSnapAndDelta(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	before := Snap(c.Eng, c.Server.NIC())
	for i := 0; i < 10; i++ {
		if err := conn.QP.PostRead(uint64(i), nil, mr.Describe(uint64(i*64)), 64); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	after := Snap(c.Eng, c.Server.NIC())
	d := Delta(before, after)
	if d.RxMsgs[nic.OpRead] != 10 {
		t.Fatalf("opcode delta = %d", d.RxMsgs[nic.OpRead])
	}
	if d.PerMRBytes[mr.RKey()] != 640 {
		t.Fatalf("MR bytes delta = %d", d.PerMRBytes[mr.RKey()])
	}
	if d.RxBytes == 0 || d.TxBytes == 0 {
		t.Fatal("volume counters did not move")
	}
}

func TestSamplerWindows(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Warm(conn, mr); err != nil {
		t.Fatal(err)
	}
	gen := &traffic.Generator{
		QP: conn.QP, CQ: conn.CQ, Op: nic.OpRead, MsgSize: 512, Depth: 4,
		Next: traffic.FixedTarget(mr.Describe(0)),
	}
	s := NewSampler(c.Eng, c.Server.NIC(), 20*sim.Microsecond, 5)
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunFor(120 * sim.Microsecond)
	gen.Stop()
	deltas := s.Deltas()
	if len(deltas) != 5 {
		t.Fatalf("got %d windows", len(deltas))
	}
	// Under a steady generator every interior window carries traffic.
	for i, d := range deltas {
		if d.RxMsgs[nic.OpRead] == 0 {
			t.Fatalf("window %d saw no reads", i)
		}
	}
	if RateGbps(deltas[1], 20*sim.Microsecond) <= 0 {
		t.Fatal("rate conversion broken")
	}
}

func TestRateGbpsZeroWindow(t *testing.T) {
	if RateGbps(Snapshot{Counters: nic.Counters{RxBytes: 100}}, 0) != 0 {
		t.Fatal("zero window should yield 0")
	}
}

// TestSnapshotTransportCounters: the reliability-layer observables — per-TC
// wire drops, retransmissions, timeouts, NAKs, duplicate ACKs — flow from the
// NIC counters into Snapshot/Delta like any other Grain-I series.
func TestSnapshotTransportCounters(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 48)
	if err != nil {
		t.Fatal(err)
	}
	c.InjectLoss(21, 0.25)
	if err := conn.QP.SetRetry(5*sim.Microsecond, 50); err != nil {
		t.Fatal(err)
	}
	clientNIC := c.Clients[0].NIC()
	before := Snap(c.Eng, clientNIC)
	data := make([]byte, 256)
	for i := 0; i < 40; i++ {
		if err := conn.QP.PostWrite(uint64(i), data, mr.Describe(0), len(data)); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	d := Delta(before, Snap(c.Eng, clientNIC))
	var drops uint64
	for _, v := range d.WireDropsTC {
		drops += v
	}
	if drops == 0 {
		t.Fatal("25% loss left WireDropsTC at zero")
	}
	if d.Retransmits == 0 {
		t.Fatal("25% loss produced no retransmissions")
	}
	if d.Retransmits < d.Timeouts {
		t.Fatalf("timeouts %d without matching retransmissions %d", d.Timeouts, d.Retransmits)
	}
	// The loss-free control: a second cluster with no plan moves none of the
	// transport counters.
	c2 := lab.New(lab.DefaultConfig(nic.CX4))
	mr2, err := c2.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := c2.Dial(0, 48)
	if err != nil {
		t.Fatal(err)
	}
	b2 := Snap(c2.Eng, c2.Clients[0].NIC())
	for i := 0; i < 40; i++ {
		if err := conn2.QP.PostWrite(uint64(i), data, mr2.Describe(0), len(data)); err != nil {
			t.Fatal(err)
		}
	}
	c2.Eng.Run()
	d2 := Delta(b2, Snap(c2.Eng, c2.Clients[0].NIC()))
	if d2.Retransmits != 0 || d2.Timeouts != 0 || d2.SeqNaks != 0 || d2.DupAcks != 0 || d2.RetryExc != 0 || d2.RxCorrupt != 0 {
		t.Fatalf("lossless run moved transport counters: %+v", d2)
	}
	for tc, v := range d2.WireDropsTC {
		if v != 0 {
			t.Fatalf("lossless run dropped on TC %d", tc)
		}
	}
}
