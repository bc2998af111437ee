package telemetry

import (
	"testing"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/verbs"
)

// twins lists every counter that has an event twin: the flight recorder's
// tally of the kinds must equal the counter a defender reads off the same
// NIC. A counter that gains an event (or an event that gains a counter)
// takes one row here.
var twins = []struct {
	name    string
	counter func(*nic.Counters) uint64
	kinds   []trace.Kind
}{
	{"retransmits", func(c *nic.Counters) uint64 { return c.Retransmits }, []trace.Kind{trace.KindRetransmit}},
	{"timeouts", func(c *nic.Counters) uint64 { return c.Timeouts }, []trace.Kind{trace.KindRtxTimeout}},
	{"seq_naks", func(c *nic.Counters) uint64 { return c.SeqNaks }, []trace.Kind{trace.KindNakSend}},
	{"dup_acks", func(c *nic.Counters) uint64 { return c.DupAcks }, []trace.Kind{trace.KindDupAck}},
	{"retry_exc", func(c *nic.Counters) uint64 { return c.RetryExc }, []trace.Kind{trace.KindRetryExc}},
	{"rx_corrupt", func(c *nic.Counters) uint64 { return c.RxCorrupt }, []trace.Kind{trace.KindRxCorrupt}},
	{"pfc_pauses", func(c *nic.Counters) uint64 { return sumTC(c.PFCPauses) }, []trace.Kind{trace.KindPFCPause}},
	// Counters folds the drops of the NIC's egress links into WireDropsTC:
	// queue tail drops and in-flight fault drops.
	{"wire_drops", func(c *nic.Counters) uint64 { return sumTC(c.WireDropsTC) }, []trace.Kind{trace.KindWireDrop, trace.KindTailDrop}},
}

func sumTC(v [8]uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

// tapped is one NIC with a recorder of its own on its datapath and on the
// egress links its WireDropsTC folds in, so the recorder's events are
// exactly that NIC's.
type tapped struct {
	ctx *verbs.Context
	rec *trace.Recorder
}

func tap(ctx *verbs.Context, egress ...*fabric.Link) tapped {
	rec := trace.NewRecorder(ctx.Name, trace.DefaultCapacity)
	ctx.SetRecorder(rec)
	for _, l := range egress {
		l.SetRecorder(rec)
	}
	return tapped{ctx, rec}
}

// checkTwins compares every twin on every tapped NIC and fails unless each
// twin named in exercised was nonzero on some NIC, so a rig that stops
// producing an event cannot pass by comparing zeros.
func checkTwins(t *testing.T, eng *sim.Engine, nics []tapped, exercised ...string) {
	t.Helper()
	seen := map[string]bool{}
	for _, n := range nics {
		snap := Snap(eng, n.ctx.NIC())
		m := n.rec.Metrics()
		for _, tw := range twins {
			var events uint64
			for _, k := range tw.kinds {
				events += m.Count(k)
			}
			if got := tw.counter(&snap.Counters); got != events {
				t.Errorf("%s %s: counter %d, events %d", n.ctx.Name, tw.name, got, events)
			}
			if events > 0 {
				seen[tw.name] = true
			}
		}
	}
	for _, name := range exercised {
		if !seen[name] {
			t.Errorf("rig never exercised %s", name)
		}
	}
}

// TestCounterTwinsMatchEvents: the twins agree on both NICs of a lossless
// READ run.
func TestCounterTwinsMatchEvents(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	nics := []tapped{
		tap(c.Clients[0], c.Links[0]),         // client0 -> server
		tap(c.Server, c.Links[1], c.Links[3]), // server -> client0, client1
	}
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := conn.QP.PostRead(uint64(i), nil, mr.Describe(uint64(i*64)), 256); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	checkTwins(t, c.Eng, nics)
}

// TestCounterTwinsMatchEventsLossy: the twins agree through loss recovery —
// retransmissions, timeouts, NAKs, duplicate ACKs and wire drops.
func TestCounterTwinsMatchEventsLossy(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	nics := []tapped{
		tap(c.Clients[0], c.Links[0]),
		tap(c.Server, c.Links[1], c.Links[3]),
	}
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
	data := make([]byte, 256)
	for i := 0; i < 40; i++ {
		if err := conn.QP.PostWrite(uint64(i), data, mr.Describe(0), len(data)); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	checkTwins(t, c.Eng, nics, "retransmits", "timeouts", "seq_naks", "dup_acks", "wire_drops")
}

// TestCounterTwinsMatchEventsFaults: the twins the lossy rig leaves at
// zero. Client0's uplink holds four packets per TC, and small TC 3 writes
// that reach it while 4 KiB TC 0 writes hold the wire tail-drop (the NIC
// paces each hand-off by the packet's own serialisation time, so only a
// mix of sizes builds a queue). Then a deep READ burst backs the server's
// receive path up past the pause threshold, corrupted frames fail their
// ICRC on both NICs, and a blackholed uplink runs a QP out of retries.
func TestCounterTwinsMatchEventsFaults(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	up := fabric.NewLink(c.Eng, "client0->server", nic.CX4.LineRateGbps, c.Net.PropDelay, 4, nic.Deliver)
	c.Net.SetPath(c.Clients[0], c.Server, up)
	nics := []tapped{
		tap(c.Clients[0], up),
		tap(c.Server, c.Links[1], c.Links[3]),
	}
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.Dial(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	small.QP.SetTC(3)
	wrid := uint64(0)
	data := make([]byte, 4096)
	post := func(qp *verbs.QP, n, size int, op nic.Opcode) {
		for i := 0; i < n; i++ {
			var err error
			if op == nic.OpRead {
				err = qp.PostRead(wrid, nil, mr.Describe(0), size)
			} else {
				err = qp.PostWrite(wrid, data[:size], mr.Describe(0), size)
			}
			if err != nil {
				t.Fatal(err)
			}
			wrid++
		}
	}

	start := c.Eng.Now()
	post(conn.QP, 16, 4096, nic.OpWrite)
	for wave := 0; wave < 3; wave++ {
		c.Eng.RunUntil(start.Add(sim.Duration(6+2*wave) * sim.Microsecond))
		post(small.QP, 8, 64, nic.OpWrite)
	}
	c.Eng.Run()

	post(conn.QP, 256, 4096, nic.OpRead)
	c.Eng.Run()

	for i, l := range append([]*fabric.Link{up}, c.Links...) {
		l.SetFaultPlan(&fabric.FaultPlan{Seed: sim.DeriveSeed(5, uint64(i)), CorruptProb: 0.1})
	}
	post(conn.QP, 64, 256, nic.OpWrite)
	c.Eng.Run()

	up.SetFaultPlan(&fabric.FaultPlan{Seed: 7, DropProb: 1})
	if err := conn.QP.SetRetry(2*sim.Microsecond, 2); err != nil {
		t.Fatal(err)
	}
	post(conn.QP, 1, 256, nic.OpWrite)
	c.Eng.Run()
	checkTwins(t, c.Eng, nics, "rx_corrupt", "retry_exc", "pfc_pauses", "wire_drops")
}
