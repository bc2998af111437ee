package fabric

import (
	"testing"

	"github.com/thu-has/ragnar/internal/sim"
)

// twoPortRig wires host0 -> switch -> host1: an upstream link feeding the
// switch's Ingress and two egress ports with collector sinks.
type twoPortRig struct {
	eng  *sim.Engine
	sw   *Switch
	up   *Link // host0's uplink into the switch
	got0 []Packet
	got1 []Packet
}

func newTwoPortRig(t *testing.T, cfg SwitchConfig) *twoPortRig {
	t.Helper()
	r := &twoPortRig{eng: sim.NewEngine(1)}
	r.sw = NewSwitch(r.eng, cfg)
	p0 := r.sw.AddPort("h0", 100, 100*sim.Nanosecond, func(p Packet) { r.got0 = append(r.got0, p) })
	p1 := r.sw.AddPort("h1", 100, 100*sim.Nanosecond, func(p Packet) { r.got1 = append(r.got1, p) })
	r.up = NewLink(r.eng, "h0->sw", 100, 100*sim.Nanosecond, 0, r.sw.Ingress)
	r.sw.SetUpstream(p0, r.up, 0)
	r.sw.Route(0, p0)
	r.sw.Route(1, p1)
	return r
}

func TestSwitchForwarding(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{Name: "sw"})
	var arrival sim.Time
	r.eng.After(0, func() {
		if err := r.up.Send(Packet{TC: 0, Bytes: 1250, Dst: 1, Payload: "x"}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.sw.EgressLink(1) // touch accessor
	r.eng.Run()
	if len(r.got1) != 1 || r.got1[0].Payload != "x" {
		t.Fatalf("port 1 got %v", r.got1)
	}
	if len(r.got0) != 0 {
		t.Fatalf("port 0 got %v, want nothing", r.got0)
	}
	_ = arrival
	// Uplink ser 100ns + prop 100ns, fwd 300ns, egress ser 100ns + prop 100ns.
	if now := r.eng.Now(); now != sim.Time(700*sim.Nanosecond) {
		t.Fatalf("last delivery at %v, want 700ns", now)
	}
	if r.sw.FwdPackets() != 1 || r.sw.FwdBytes() != 1250 {
		t.Fatalf("fwd counters = %d pkts %d bytes", r.sw.FwdPackets(), r.sw.FwdBytes())
	}
	if r.sw.BufUsed() != 0 {
		t.Fatalf("buffer not drained: %d bytes", r.sw.BufUsed())
	}
}

func TestSwitchForwardingFIFO(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{})
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		r.eng.After(sim.Duration(i)*10*sim.Nanosecond, func() {
			r.up.Send(Packet{TC: 2, Bytes: 256, Dst: 1, Payload: i})
		})
	}
	r.eng.Run()
	if len(r.got1) != n {
		t.Fatalf("delivered %d, want %d", len(r.got1), n)
	}
	for i, p := range r.got1 {
		if p.Payload.(int) != i {
			t.Fatalf("order violated at %d: %v", i, p.Payload)
		}
	}
}

func TestSwitchUnroutable(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{})
	r.eng.After(0, func() {
		r.up.Send(Packet{TC: 0, Bytes: 100, Dst: 99})
	})
	r.eng.Run()
	if len(r.got0)+len(r.got1) != 0 {
		t.Fatal("unroutable packet was delivered")
	}
	if r.sw.Unroutable() != 1 {
		t.Fatalf("unroutable = %d, want 1", r.sw.Unroutable())
	}
	if r.sw.BufUsed() != 0 {
		t.Fatalf("unroutable packet left %d bytes in buffer", r.sw.BufUsed())
	}
}

func TestSwitchSharedBufferDrop(t *testing.T) {
	// Pool holds two queued 1000B packets. Four arrivals 1µs apart, each
	// past the previous one's forwarding delay, into a slow (1 Gbps) egress:
	// packet 1 goes straight to the serializer (occupancy released at
	// dequeue-to-wire), packets 2 and 3 fill the pool, packet 4 must
	// tail-drop at admission.
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, SwitchConfig{SharedBufBytes: 2000})
	var got int
	sp := sw.AddPort("h", 1, 0, func(Packet) { got++ }) // 1 Gbps: 8µs per 1000B
	sw.Route(1, sp)
	for i := 0; i < 4; i++ {
		eng.After(sim.Duration(i)*sim.Microsecond, func() {
			sw.Ingress(Packet{TC: 0, Bytes: 1000, Dst: 1})
		})
	}
	eng.Run()
	if got != 3 {
		t.Fatalf("delivered %d, want 3 (pool admits one in flight + two queued)", got)
	}
	if sw.BufDrops(0) != 1 {
		t.Fatalf("bufDrops = %d, want 1", sw.BufDrops(0))
	}
	if sw.BufUsed() != 0 {
		t.Fatalf("buffer not drained: %d", sw.BufUsed())
	}
}

func TestSwitchPFCPauseResume(t *testing.T) {
	// A slow egress port (1 Gbps) behind a fast uplink: backlog crosses XOFF,
	// the upstream link must pause that TC, then resume once drained to XON.
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, SwitchConfig{XOffBytes: 3000})
	var delivered int
	p := sw.AddPort("h", 1, 0, func(Packet) { delivered++ })
	up := NewLink(eng, "up", 100, 0, 0, sw.Ingress)
	upIdx := sw.AddPort("src", 100, 0, nil)
	sw.SetUpstream(upIdx, up, 0)
	sw.Route(1, p)
	eng.After(0, func() {
		for i := 0; i < 10; i++ {
			up.Send(Packet{TC: 3, Bytes: 1000, Dst: 1})
		}
	})
	sawPause := false
	eng.After(2*sim.Microsecond, func() {
		if up.PausedTC(3) {
			sawPause = true
		}
	})
	eng.Run()
	if !sawPause {
		t.Fatal("upstream link never paused while egress backlog exceeded XOFF")
	}
	if sw.PFCPauses(3) == 0 {
		t.Fatal("PFCPauses counter did not advance")
	}
	if delivered != 10 {
		t.Fatalf("delivered %d, want 10 — pause must not drop packets", delivered)
	}
	if up.PausedTC(3) {
		t.Fatal("pause never released after drain")
	}
	if sw.BufUsed() != 0 {
		t.Fatalf("buffer not drained: %d", sw.BufUsed())
	}
}

func TestSwitchPFCRefcountAcrossPorts(t *testing.T) {
	// Two congested egress ports pausing the same TC: the upstream must stay
	// paused until BOTH release (refcount semantics).
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, SwitchConfig{XOffBytes: 2000})
	pa := sw.AddPort("a", 1, 0, func(Packet) {})
	pb := sw.AddPort("b", 2, 0, func(Packet) {})
	up := NewLink(eng, "up", 100, 0, 0, sw.Ingress)
	src := sw.AddPort("src", 100, 0, nil)
	sw.SetUpstream(src, up, 0)
	sw.Route(1, pa)
	sw.Route(2, pb)
	eng.After(0, func() {
		for i := 0; i < 6; i++ {
			up.Send(Packet{TC: 0, Bytes: 1000, Dst: 1})
			up.Send(Packet{TC: 0, Bytes: 1000, Dst: 2})
		}
	})
	// Port b (2 Gbps) drains to XON before port a (1 Gbps). Midway the
	// upstream must still be paused because port a holds the refcount.
	stillPaused := false
	eng.After(30*sim.Microsecond, func() {
		if sw.PortBacklog(0, 0) > 1000 && !up.PausedTC(0) {
			t.Error("upstream resumed while port a still above XON")
		}
		stillPaused = up.PausedTC(0)
	})
	eng.Run()
	if !stillPaused {
		t.Fatal("expected upstream still paused at 30µs (port a backlog)")
	}
	if up.PausedTC(0) {
		t.Fatal("pause leaked after both ports drained")
	}
	if sw.BufUsed() != 0 {
		t.Fatalf("buffer not drained: %d", sw.BufUsed())
	}
}

func TestLinkPauseResumeDirect(t *testing.T) {
	// Link-level PFC primitive: a paused TC holds its packets while other
	// classes flow; resume restarts an idle link.
	eng := sim.NewEngine(1)
	var order []int
	l := NewLink(eng, "l", 100, 0, 0, func(p Packet) { order = append(order, p.TC) })
	l.PauseTC(3)
	eng.After(0, func() {
		l.Send(Packet{TC: 3, Bytes: 100})
		l.Send(Packet{TC: 1, Bytes: 100})
	})
	eng.After(sim.Microsecond, func() { l.ResumeTC(3) })
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3] (paused TC3 held until resume)", order)
	}
	if l.PausedTC(3) {
		t.Fatal("PausedTC stuck after resume")
	}
	// Resume on a never-paused class is a no-op.
	l.ResumeTC(0)
}

// A malicious host XOFF-ing its own port while never sending data (pause
// abuse on empty queues) must not deadlock an acyclic topology: the pause
// carries a quantum and expires on its own, after which queued traffic
// drains and the engine goes idle. Before pause quanta existed this exact
// sequence would have wedged the port forever.
func TestPortPauseEmptyQueueCannotDeadlock(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{})
	// The aggressor pauses port 1 with nothing queued anywhere.
	r.eng.After(0, func() { r.sw.PortPause(1, 2) })
	// A victim packet for port 1 arrives while the pause holds.
	r.eng.After(1*sim.Microsecond, func() {
		if err := r.up.Send(Packet{TC: 2, Bytes: 1250, Dst: 1, Payload: "victim"}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.eng.Run()
	if len(r.got1) != 1 {
		t.Fatalf("victim packet never delivered: got %d packets (deadlock)", len(r.got1))
	}
	if r.sw.PortPaused(1, 2) {
		t.Fatal("pause never expired")
	}
	// Delivery waited for the quanta to lapse, not a byte-threshold XON
	// that empty queues can never reach.
	if now := r.eng.Now(); now < sim.Time(pauseQuanta) {
		t.Fatalf("delivered at %v, before the pause quanta expired", now)
	}
	if r.sw.RxPauses(2) != 1 {
		t.Fatalf("RxPauses = %d, want 1", r.sw.RxPauses(2))
	}
}

// Refreshing pause frames extend the stall; once the aggressor stops, the
// last quantum runs out and everything drains.
func TestPortPauseRefreshExtendsThenExpires(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{})
	r.eng.After(0, func() {
		r.up.Send(Packet{TC: 1, Bytes: 1250, Dst: 1, Payload: "p"})
	})
	// Three refreshes 5µs apart: pause holds for one quanta after the last.
	for i := 0; i < 3; i++ {
		d := sim.Duration(i) * 5 * sim.Microsecond
		r.eng.After(d, func() { r.sw.PortPause(1, 1) })
	}
	r.eng.Run()
	if len(r.got1) != 1 {
		t.Fatalf("packet never delivered after pauses expired: %v", r.got1)
	}
	// Last refresh at 10µs holds until 10µs + quanta; the earlier expiry
	// timers at the quanta and 5µs later must not release it early.
	if end := sim.Time(10 * sim.Microsecond).Add(pauseQuanta); r.eng.Now() < end {
		t.Fatalf("delivered at %v, want after the refreshed quanta (%v)", r.eng.Now(), end)
	}
	if r.sw.RxPauses(1) != 3 {
		t.Fatalf("RxPauses = %d, want 3", r.sw.RxPauses(1))
	}
}

// PortResume (a zero-quanta frame) releases the pause immediately.
func TestPortResumeReleasesEarly(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{})
	r.eng.After(0, func() {
		r.sw.PortPause(1, 3)
		r.up.Send(Packet{TC: 3, Bytes: 1250, Dst: 1, Payload: "p"})
	})
	r.eng.After(2*sim.Microsecond, func() { r.sw.PortResume(1, 3) })
	// Well before the 335µs quanta would have expired.
	var deliveredEarly bool
	r.eng.After(5*sim.Microsecond, func() { deliveredEarly = len(r.got1) == 1 })
	r.eng.Run()
	if !deliveredEarly {
		t.Fatalf("resume did not release the port early: %v", r.got1)
	}
}

// Pause abuse amplifies: backlog piling up behind a PortPaused egress
// crosses XOFF and pauses *upstream* ports — the congestion tree an
// aggressor grows without ever being the bandwidth bottleneck itself.
func TestPortPausePropagatesCongestionUpstream(t *testing.T) {
	r := newTwoPortRig(t, SwitchConfig{XOffBytes: 4000})
	r.eng.After(0, func() { r.sw.PortPause(1, 0) })
	for i := 0; i < 6; i++ {
		i := i
		r.eng.After(sim.Duration(i)*200*sim.Nanosecond, func() {
			r.up.Send(Packet{TC: 0, Bytes: 1250, Dst: 1, Payload: i})
		})
	}
	var sawUpstreamPause bool
	r.eng.After(5*sim.Microsecond, func() { sawUpstreamPause = r.up.PausedTC(0) })
	r.eng.Run()
	if !sawUpstreamPause {
		t.Fatal("backlog behind the paused port never paused the upstream link")
	}
	if len(r.got1) != 6 {
		t.Fatalf("delivered %d packets after expiry, want 6", len(r.got1))
	}
	if r.sw.PFCPauses(0) == 0 {
		t.Fatal("XOFF never asserted")
	}
}

// TestRouteECMPFlowStickiness: every packet of one flow takes one egress;
// different flows spread across the group.
func TestRouteECMPFlowStickiness(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "ecmp"})
	var got [3][]uint32
	ports := make([]int, 3)
	for i := range ports {
		i := i
		ports[i] = sw.AddPort("up", 100, 100*sim.Nanosecond,
			func(p Packet) { got[i] = append(got[i], p.Flow) })
	}
	sw.RouteECMP(7, ports)

	const flows = 64
	for round := 0; round < 4; round++ {
		for f := uint32(0); f < flows; f++ {
			sw.Ingress(Packet{TC: 0, Bytes: 256, Dst: 7, Flow: f})
		}
	}
	e.Run()

	seen := map[uint32]int{}
	total := 0
	for port, fls := range got {
		if len(fls) == 0 {
			t.Errorf("ECMP left port %d completely idle across %d flows", port, flows)
		}
		total += len(fls)
		for _, f := range fls {
			if prev, ok := seen[f]; ok && prev != port {
				t.Fatalf("flow %d crossed ports %d and %d — per-packet spraying reorders", f, prev, port)
			}
			seen[f] = port
		}
	}
	if total != 4*flows {
		t.Fatalf("delivered %d packets, want %d", total, 4*flows)
	}
}

// TestRouteECMPSinglePortDegrades pins that a one-port group is a plain
// table entry (no map lookup on the forwarding path).
func TestRouteECMPSinglePortDegrades(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "ecmp1"})
	n := 0
	p0 := sw.AddPort("only", 100, sim.Nanosecond, func(Packet) { n++ })
	sw.RouteECMP(3, []int{p0})
	sw.Ingress(Packet{TC: 0, Bytes: 64, Dst: 3, Flow: 9})
	e.Run()
	if n != 1 || sw.ecmp != nil {
		t.Fatalf("single-port group: delivered=%d ecmp=%v, want 1 and nil", n, sw.ecmp)
	}
}

// TestTrunkPauseDelay: a trunk port pauses and resumes its upstream
// exactly its pause delay after XOFF and XON, a host port at once.
func TestTrunkPauseDelay(t *testing.T) {
	const delay = 250 * sim.Nanosecond
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "pfc", SharedBufBytes: 1 << 20, XOffBytes: 2048})
	hot := sw.AddPort("hot", 1, 10*sim.Nanosecond, func(Packet) {})
	trunk := sw.AddPort("trunk", 100, delay, func(Packet) {})
	host := sw.AddPort("host", 100, 10*sim.Nanosecond, func(Packet) {})
	trunkUp := NewLink(e, "trunk-up", 100, delay, 0, sw.Ingress)
	hostUp := NewLink(e, "host-up", 100, 10*sim.Nanosecond, 0, sw.Ingress)
	sw.SetUpstream(trunk, trunkUp, delay)
	sw.SetUpstream(host, hostUp, 0)
	sw.Route(1, hot)

	// Three 1 KiB packets at once: one forwarding delay later the first
	// goes straight onto the slow wire, the next two fill the queue to XOFF.
	// XON comes when the first has left and the second dequeues.
	in := sim.Time(sim.Microsecond)
	xoff := in.Add(fwdDelay)
	xon := xoff.Add(sw.EgressLink(hot).SerializationDelay(1024))
	e.At(in, func() {
		for i := 0; i < 3; i++ {
			sw.Ingress(Packet{TC: 0, Bytes: 1024, Dst: 1})
		}
	})
	for _, step := range []struct {
		at          sim.Time
		trunk, host bool // paused
	}{
		{xoff, false, true},
		{xoff.Add(delay - 1), false, true},
		{xoff.Add(delay), true, true},
		{xon, true, false},
		{xon.Add(delay - 1), true, false},
		{xon.Add(delay), false, false},
	} {
		e.RunUntil(step.at)
		if trunkUp.PausedTC(0) != step.trunk || hostUp.PausedTC(0) != step.host {
			t.Fatalf("at %v: trunk upstream paused %v, host upstream paused %v; want %v, %v",
				step.at, trunkUp.PausedTC(0), hostUp.PausedTC(0), step.trunk, step.host)
		}
	}
	e.Run()
	if sw.PFCPauses(0) != 1 {
		t.Fatalf("PFCPauses = %d, want 1", sw.PFCPauses(0))
	}
	if err := e.DrainCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPortPauseNoEventLeak is the satellite regression: refreshed pause
// frames must not leave stale expiry events pending after the run
// quiesces. Before the cancellable-event fix, every refresh stacked one
// no-op event at its old expiry time.
func TestPortPauseNoEventLeak(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "leak"})
	port := sw.AddPort("victim", 100, sim.Nanosecond, func(Packet) {})

	// 5 refreshes, 1µs apart: one pause window ending a quanta after the
	// last.
	for i := 0; i < 5; i++ {
		at := sim.Time(int64(i) * int64(sim.Microsecond))
		e.At(at, func() { sw.PortPause(port, 3) })
	}
	e.RunUntil(sim.Time(2 * int64(sim.Microsecond)))
	if got := e.LivePending(); got != 3 {
		t.Fatalf("mid-run LivePending = %d, want 3 (2 future pause frames + 1 armed expiry)", got)
	}
	e.Run()
	if err := e.DrainCheck(); err != nil {
		t.Fatalf("stale pause expiries leaked: %v", err)
	}
	if sw.PortPaused(port, 3) {
		t.Fatal("pause never expired")
	}
	if got := sw.RxPauses(3); got != 5 {
		t.Fatalf("RxPauses = %d, want 5", got)
	}
}
