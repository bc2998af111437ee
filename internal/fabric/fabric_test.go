package fabric

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/thu-has/ragnar/internal/sim"
)

func TestSerializationDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, "l", 100, 0, 0, nil)
	// 1250 bytes at 100 Gbps = 10000 bits / 100 Gbps = 100 ns.
	if d := l.SerializationDelay(1250); d != 100*sim.Nanosecond {
		t.Fatalf("serialization = %v, want 100ns", d)
	}
	// 64 bytes at 25 Gbps = 512 bits / 25 Gbps = 20.48 ns.
	l2 := NewLink(eng, "l2", 25, 0, 0, nil)
	if d := l2.SerializationDelay(64); d != sim.Duration(20480) {
		t.Fatalf("serialization = %v ps, want 20480ps", int64(d))
	}
}

func TestLinkDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []Packet
	var arrivals []sim.Time
	l := NewLink(eng, "l", 100, 500*sim.Nanosecond, 0, func(p Packet) {
		got = append(got, p)
		arrivals = append(arrivals, eng.Now())
	})
	if err := l.Send(Packet{TC: 0, Bytes: 1250, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].Payload != "x" {
		t.Fatalf("delivered %v", got)
	}
	if arrivals[0] != sim.Time(600*sim.Nanosecond) {
		t.Fatalf("arrival at %v, want 600ns (100ns ser + 500ns prop)", arrivals[0])
	}
	if l.TxBytes(0) != 1250 || l.TxPackets(0) != 1 {
		t.Fatalf("counters = %d bytes %d pkts", l.TxBytes(0), l.TxPackets(0))
	}
}

func TestLinkFIFOWithinTC(t *testing.T) {
	eng := sim.NewEngine(1)
	var order []int
	l := NewLink(eng, "l", 100, 0, 0, func(p Packet) {
		order = append(order, p.Payload.(int))
	})
	for i := 0; i < 5; i++ {
		if err := l.Send(Packet{TC: 3, Bytes: 100, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("TC FIFO violated: %v", order)
		}
	}
}

func TestSendValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, "l", 100, 0, 0, nil)
	if err := l.Send(Packet{TC: -1, Bytes: 10}); err == nil {
		t.Fatal("negative TC should error")
	}
	if err := l.Send(Packet{TC: 8, Bytes: 10}); err == nil {
		t.Fatal("TC 8 should error")
	}
	if err := l.Send(Packet{TC: 0, Bytes: 0}); err == nil {
		t.Fatal("zero bytes should error")
	}
}

func TestTailDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, "l", 100, 0, 2, nil)
	// First packet goes into service immediately; two more fill the queue.
	for i := 0; i < 3; i++ {
		if err := l.Send(Packet{TC: 0, Bytes: 1000}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := l.Send(Packet{TC: 0, Bytes: 1000}); err == nil {
		t.Fatal("queue overflow should error")
	}
	if l.Drops(0) != 1 {
		t.Fatalf("drops = %d", l.Drops(0))
	}
}

// Two classes with equal-size packets must share the link nearly evenly
// under saturation: every class gets the paper's ETS 50 % quantum.
func TestETSFairShare(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, "l", 100, 0, 0, nil)
	for i := 0; i < 400; i++ {
		l.Send(Packet{TC: 0, Bytes: 1024})
		l.Send(Packet{TC: 3, Bytes: 1024})
	}
	eng.Run()
	b0, b3 := float64(l.TxBytes(0)), float64(l.TxBytes(3))
	ratio := b0 / b3
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("ETS 50/50 ratio = %v", ratio)
	}
}

// Every class earns the 8 KiB quantum of the ETS 50/50 split per DWRR
// round, so two backlogged classes of 4 KiB packets take turns two packets
// at a time. The first packet finds the wire idle and leaves alone.
func TestDWRRQuantum(t *testing.T) {
	eng := sim.NewEngine(1)
	var order []int
	l := NewLink(eng, "l", 100, 0, 0, func(p Packet) { order = append(order, p.TC) })
	for i := 0; i < 4; i++ {
		l.Send(Packet{TC: 0, Bytes: 4096})
		l.Send(Packet{TC: 3, Bytes: 4096})
	}
	eng.Run()
	if want := []int{0, 0, 0, 3, 3, 0, 3, 3}; !slices.Equal(order, want) {
		t.Fatalf("service order = %v, want %v", order, want)
	}
}

func TestOversizedPacketMakesProgress(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	l := NewLink(eng, "l", 100, 0, 0, func(p Packet) { delivered++ })
	// Larger than the deficit a pick can build up round by round.
	if err := l.Send(Packet{TC: 0, Bytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered != 1 {
		t.Fatal("oversized packet starved")
	}
}

// Property: byte conservation — every byte sent on a TC is eventually
// clocked out, and total delivered equals total accepted.
func TestByteConservationProperty(t *testing.T) {
	f := func(sizes []uint16, tcs []uint8) bool {
		eng := sim.NewEngine(11)
		var deliveredBytes uint64
		l := NewLink(eng, "l", 200, 10*sim.Nanosecond, 0, func(p Packet) {
			deliveredBytes += uint64(p.Bytes)
		})
		var accepted uint64
		for i, s := range sizes {
			tc := 0
			if len(tcs) > 0 {
				tc = int(tcs[i%len(tcs)]) % NumTCs
			}
			bytes := int(s)%4096 + 1
			if err := l.Send(Packet{TC: tc, Bytes: bytes}); err == nil {
				accepted += uint64(bytes)
			}
		}
		eng.Run()
		var txBytes uint64
		for tc := range NumTCs {
			txBytes += l.TxBytes(tc)
		}
		return deliveredBytes == accepted && txBytes == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// collectLoss drives n same-TC packets through a link under plan and returns
// which packet indices arrived (in order) plus the link's fault counters.
func collectLoss(t *testing.T, plan *FaultPlan, n int) ([]int, *Link) {
	t.Helper()
	eng := sim.NewEngine(1)
	var got []int
	l := NewLink(eng, "l", 100, 0, 0, func(p Packet) {
		got = append(got, p.Payload.(int))
	})
	l.SetFaultPlan(plan)
	for i := 0; i < n; i++ {
		if err := l.Send(Packet{TC: 0, Bytes: 256, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	return got, l
}

// TestFaultPlanDeterministicDrops: the drop pattern is a pure function of the
// plan seed — two identical runs lose exactly the same packets — and every
// packet is either delivered or counted as a fault drop.
func TestFaultPlanDeterministicDrops(t *testing.T) {
	plan := FaultPlan{Seed: 42, DropProb: 0.3}
	got1, l1 := collectLoss(t, &plan, 200)
	got2, _ := collectLoss(t, &plan, 200)
	if len(got1) != len(got2) {
		t.Fatalf("deliveries differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, got1[i], got2[i])
		}
	}
	if l1.FaultDrops(0) == 0 {
		t.Fatal("30% loss dropped nothing")
	}
	if int(l1.FaultDrops(0))+len(got1) != 200 {
		t.Fatalf("drops %d + delivered %d != 200", l1.FaultDrops(0), len(got1))
	}
	other := FaultPlan{Seed: 43, DropProb: 0.3}
	got3, _ := collectLoss(t, &other, 200)
	same := len(got3) == len(got1)
	if same {
		for i := range got1 {
			if got1[i] != got3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical loss pattern")
	}
}

// TestFaultPlanBurstLoss: with BurstLen = 3 every drop decision removes at
// least three consecutive packets of the TC, so every gap in the delivered
// sequence (except one cut short by the end of the stream) spans >= 3.
func TestFaultPlanBurstLoss(t *testing.T) {
	plan := FaultPlan{Seed: 7, DropProb: 0.1, BurstLen: 3}
	got, l := collectLoss(t, &plan, 300)
	if l.FaultDrops(0) == 0 {
		t.Fatal("burst plan dropped nothing")
	}
	prev := -1
	for i, v := range got {
		gap := v - prev - 1
		if gap != 0 && gap < 3 {
			t.Fatalf("gap of %d before delivery %d (packet %d): bursts must span >= 3", gap, i, v)
		}
		prev = v
	}
}

// TestFaultPlanCorruption: corruption flags packets without dropping them,
// and the Corrupts counter tracks exactly the flagged deliveries.
func TestFaultPlanCorruption(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered, corrupt int
	l := NewLink(eng, "l", 100, 0, 0, func(p Packet) {
		delivered++
		if p.Corrupt {
			corrupt++
		}
	})
	l.SetFaultPlan(&FaultPlan{Seed: 5, CorruptProb: 1})
	for i := 0; i < 50; i++ {
		if err := l.Send(Packet{TC: 2, Bytes: 128, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if delivered != 50 || corrupt != 50 {
		t.Fatalf("delivered %d corrupt %d, want 50/50", delivered, corrupt)
	}
	if l.Corrupts(2) != 50 || l.FaultDrops(2) != 0 {
		t.Fatalf("counters: corrupts %d drops %d", l.Corrupts(2), l.FaultDrops(2))
	}
}

// TestFaultPlanClear: a nil plan restores the pristine wire.
func TestFaultPlanClear(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int
	l := NewLink(eng, "l", 100, 0, 0, func(Packet) { delivered++ })
	l.SetFaultPlan(&FaultPlan{Seed: 9, DropProb: 1})
	if err := l.Send(Packet{TC: 0, Bytes: 64, Payload: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered != 0 {
		t.Fatal("100% loss delivered a packet")
	}
	l.SetFaultPlan(nil)
	for i := 0; i < 10; i++ {
		if err := l.Send(Packet{TC: 0, Bytes: 64, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if delivered != 10 {
		t.Fatalf("pristine wire delivered %d/10", delivered)
	}
}

// TestRingQueueFIFOAcrossCompaction exercises the per-TC ring queues through
// enough push/pop cycles to hit both the rewind (drained) and compaction
// (consumed prefix dominates) paths, checking FIFO order end to end and that
// the backing array stops growing once steady state is reached.
func TestRingQueueFIFOAcrossCompaction(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, "l", 100, 0, 0, nil)
	next := 0 // next value to push
	want := 0 // next value expected from pop
	push := func(n int) {
		for i := 0; i < n; i++ {
			l.qPush(2, Packet{TC: 2, Bytes: 64, Payload: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			p := l.qPop(2)
			if p.Payload.(int) != want {
				t.Fatalf("popped %v, want %d", p.Payload, want)
			}
			want++
		}
	}
	// Steady producer/consumer imbalance: head index keeps climbing, forcing
	// periodic compaction; occasional full drains force the rewind path.
	for round := 0; round < 50; round++ {
		push(100)
		pop(70)
	}
	pop(next - want) // drain: rewind path
	if l.qLen(2) != 0 {
		t.Fatalf("qLen = %d after drain", l.qLen(2))
	}
	push(3)
	pop(3)
	if got := cap(l.queues[2]); got > 4096 {
		t.Fatalf("ring backing array grew unboundedly: cap %d", got)
	}
}

// TestRingQueuePopReleasesPayload checks that qPop zeroes the vacated slot so
// the ring's backing array does not pin delivered payloads for GC.
func TestRingQueuePopReleasesPayload(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, "l", 100, 0, 0, nil)
	l.qPush(0, Packet{TC: 0, Bytes: 64, Payload: "held"})
	l.qPush(0, Packet{TC: 0, Bytes: 64, Payload: "next"})
	l.qPop(0)
	if l.queues[0][0].Payload != nil {
		t.Fatal("vacated ring slot still references the delivered payload")
	}
	if p := l.qPop(0); p.Payload != "next" {
		t.Fatalf("second pop = %v", p.Payload)
	}
}
