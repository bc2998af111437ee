package nic

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/wire"
)

// loopRig builds two NICs connected via the loopback fallback (no fabric
// link), enough to exercise the DES pipeline in isolation.
func loopRig(t *testing.T, p Profile) (*sim.Engine, *NIC, *NIC, *host.Region) {
	t.Helper()
	eng := sim.NewEngine(1)
	hA := host.New(eng, host.H2)
	hB := host.New(eng, host.H3)
	a := New(eng, "a", p, hA, 0)
	b := New(eng, "b", p, hB, 0)
	region, err := hB.Alloc(2<<20, host.Page2M, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterMR(MRInfo{
		Key: 77, Base: region.Base(), Size: region.Size(), Region: region,
		PageSize: uint64(host.Page2M), RemoteRead: true, RemoteWrite: true, Atomic: true,
	}); err != nil {
		t.Fatal(err)
	}
	return eng, a, b, region
}

// connect creates and binds QPs 1<->2 with the given completion sink on a.
func connect(t *testing.T, a, b *NIC, onComplete func(Completion)) {
	t.Helper()
	if err := a.CreateQP(1, onComplete, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateQP(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectQP(1, b, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectQP(2, a, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNICLoopbackRead(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	copy(region.Bytes()[128:], "loopback payload")
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	buf := make([]byte, 16)
	err := a.PostSend(1, &WQE{WRID: 5, Op: OpRead, LocalData: buf,
		RemoteKey: 77, RemoteAddr: region.Base() + 128, Length: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 1 || comps[0].Status != StatusOK {
		t.Fatalf("completions = %+v", comps)
	}
	if string(buf) != "loopback payload" {
		t.Fatalf("read %q", buf)
	}
}

func TestBadRKeyNAK(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	a.PostSend(1, &WQE{WRID: 1, Op: OpRead, RemoteKey: 999, RemoteAddr: region.Base(), Length: 8})
	eng.Run()
	if len(comps) != 1 || comps[0].Status != StatusRemoteAccessError {
		t.Fatalf("completions = %+v", comps)
	}
	if b.Counters().NAKs != 1 {
		t.Fatalf("NAK counter = %d", b.Counters().NAKs)
	}
}

func TestQPCMissPenaltyVisible(t *testing.T) {
	// The first message to a QP pays the QPC ICM fetch; the second does not.
	lat := func(warm bool) sim.Duration {
		eng, a, b, region := loopRig(t, CX4)
		var comps []Completion
		connect(t, a, b, func(c Completion) { comps = append(comps, c) })
		n := 1
		if warm {
			n = 2
		}
		for i := 0; i < n; i++ {
			a.PostSend(1, &WQE{WRID: uint64(i), Op: OpRead,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: 8})
			eng.Run()
		}
		last := comps[len(comps)-1]
		return last.DoneTime.Sub(last.PostTime)
	}
	cold, warm := lat(false), lat(true)
	// The warm path avoids both the QPC and MTT miss penalties.
	if cold-warm < CX4.QPCMissPenalty {
		t.Fatalf("cold %v vs warm %v: miss penalties not visible", cold, warm)
	}
}

// Key Finding 3 at the DES level: with requester and responder traffic
// queued at the same egress arbiter, the requester ring (class 0) departs
// first.
func TestEgressPriorityKF3(t *testing.T) {
	eng := sim.NewEngine(1)
	h := host.New(eng, host.H3)
	n := New(eng, "n", CX4, h, 0)
	egress := n.egress
	var order []string
	// Fill the arbiter: responder-class first, then requester-class.
	egress.Submit(100*sim.Nanosecond, 1, func() { order = append(order, "rx-1") })
	egress.Submit(100*sim.Nanosecond, 1, func() { order = append(order, "rx-2") })
	egress.Submit(100*sim.Nanosecond, 0, func() { order = append(order, "tx-1") })
	eng.Run()
	// rx-1 was already in service; tx-1 must overtake rx-2.
	if order[1] != "tx-1" {
		t.Fatalf("egress order = %v (Tx ring must outrank Rx ring)", order)
	}
}

func TestInlineWriteFasterThanDMA(t *testing.T) {
	// Writes at or below InlineMax skip the payload DMA and complete sooner
	// per byte than just-above-threshold writes.
	lat := func(size int) sim.Duration {
		eng, a, b, region := loopRig(t, CX4)
		var comps []Completion
		connect(t, a, b, func(c Completion) { comps = append(comps, c) })
		// Warm caches first.
		a.PostSend(1, &WQE{WRID: 0, Op: OpWrite, LocalData: make([]byte, 8),
			RemoteKey: 77, RemoteAddr: region.Base(), Length: 8})
		eng.Run()
		a.PostSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: make([]byte, size),
			RemoteKey: 77, RemoteAddr: region.Base(), Length: size})
		eng.Run()
		last := comps[len(comps)-1]
		return last.DoneTime.Sub(last.PostTime)
	}
	inline := lat(CX4.InlineMax)
	dma := lat(CX4.InlineMax + 8)
	// The non-inline path adds a full DMA round (PCIe latency dominated).
	if dma-inline < CX4.PCIeLatency/2 {
		t.Fatalf("inline %v vs DMA %v: inline advantage missing", inline, dma)
	}
}

func TestWireBytesAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	h := host.New(eng, host.H3)
	n := New(eng, "n", CX4, h, 0)
	// Single-packet write: payload + one header.
	if got := n.wireBytes(&Message{Op: OpWrite, Length: 1000}); got != 1000+WireHeaderBytes {
		t.Fatalf("write wire bytes = %d", got)
	}
	// Multi-packet write: one header per MTU.
	if got := n.wireBytes(&Message{Op: OpWrite, Length: 2*CX4.MTU + 1}); got != 2*CX4.MTU+1+3*WireHeaderBytes {
		t.Fatalf("large write wire bytes = %d", got)
	}
	// Read request is header-only.
	if got := n.wireBytes(&Message{Op: OpRead, Length: 4096}); got != ReadReqBytes {
		t.Fatalf("read request wire bytes = %d", got)
	}
	// Read response carries the payload.
	if got := n.wireBytes(&Message{Op: OpRead, Length: 4096, IsResp: true}); got != 4096+WireHeaderBytes {
		t.Fatalf("read response wire bytes = %d", got)
	}
	// Write ACK is a bare header.
	if got := n.wireBytes(&Message{Op: OpWrite, IsResp: true}); got != AckBytes {
		t.Fatalf("ack wire bytes = %d", got)
	}
}

func TestPerTCCounters(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	done := 0
	connect(t, a, b, func(Completion) { done++ })
	a.PostSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: make([]byte, 64),
		RemoteKey: 77, RemoteAddr: region.Base(), Length: 64, TC: 3})
	eng.Run()
	if done != 1 {
		t.Fatal("write did not complete")
	}
	if a.Counters().TxBytesTC[3] == 0 {
		t.Fatal("per-TC egress counter not incremented")
	}
	if b.Counters().RxBytesTC[3] == 0 {
		t.Fatal("per-TC ingress counter not incremented")
	}
	if a.Counters().TxBytesTC[0] != 0 {
		// Only the response (same TC) flows back; TC0 must stay clean.
		t.Fatal("unrelated TC counter moved")
	}
}

func TestPostSendValidation(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	_ = eng
	connect(t, a, b, nil)
	if err := a.PostSend(99, &WQE{Op: OpRead}); err == nil {
		t.Fatal("unknown QP should error")
	}
	if err := a.PostSend(1, &WQE{Op: OpRead, TC: 99, RemoteKey: 77, RemoteAddr: region.Base(), Length: 8}); err == nil {
		t.Fatal("invalid TC should error")
	}
	if err := a.CreateQP(1, nil, nil); err == nil {
		t.Fatal("duplicate QPN should error")
	}
	if err := a.ConnectQP(42, b, 2); err == nil {
		t.Fatal("connecting unknown QP should error")
	}
	if err := b.RegisterMR(MRInfo{Key: 77}); err == nil {
		t.Fatal("duplicate MR key should error")
	}
}

func TestOutOfBoundsWriteRejected(t *testing.T) {
	eng, a, b, region := loopRig(t, CX4)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	a.PostSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: make([]byte, 64),
		RemoteKey: 77, RemoteAddr: region.Base() + region.Size() - 8, Length: 64})
	eng.Run()
	if len(comps) != 1 || comps[0].Status != StatusRemoteAccessError {
		t.Fatalf("completions = %+v", comps)
	}
	// Nothing must have been written past the region.
	for _, v := range region.Bytes()[region.Size()-8:] {
		if v != 0 {
			t.Fatal("out-of-bounds write mutated memory")
		}
	}
}

// The NIC model's header-size constants must agree with the real RoCEv2
// framing this package computes.
func TestNICConstantsMatchWireFormat(t *testing.T) {
	// WireHeaderBytes is the per-packet overhead excluding payload for
	// payload-carrying packets: frame minus payload, with the write RETH
	// accounted inside the payload path... the model folds the RETH into
	// its flat header constant, so the write frame must sit within a RETH
	// of the model's accounting.
	writeFrame, err := wire.FrameBytes(wire.OpWriteOnly, 1000)
	if err != nil {
		t.Fatal(err)
	}
	modelWrite := 1000 + WireHeaderBytes
	if diff := writeFrame - modelWrite; diff < 0 || diff > wire.RETHBytes {
		t.Fatalf("write framing: wire %d vs model %d (diff %d)", writeFrame, modelWrite, diff)
	}

	readReq, err := wire.FrameBytes(wire.OpReadRequest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := readReq - ReadReqBytes; diff < -4 || diff > 4 {
		t.Fatalf("read request framing: wire %d vs model %d", readReq, ReadReqBytes)
	}

	ack, err := wire.FrameBytes(wire.OpAcknowledge, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ack - AckBytes; diff < -4 || diff > 4 {
		t.Fatalf("ack framing: wire %d vs model %d", ack, AckBytes)
	}
}

// Large messages segment into FIRST/MIDDLE/LAST RoCEv2 packets with
// contiguous PSNs and a reassemblable payload.
func TestLargeWriteSegmentsOnWire(t *testing.T) {
	payload := make([]byte, 2*CX4.MTU+100)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m := &Message{Op: OpWrite, DstQPN: 9, RemoteAddr: 0x1000, RKey: 5,
		Length: len(payload), Data: payload, Seq: 7, PSN: 41}
	var fb frameBuf
	if err := fb.encode(m, CX4.MTU); err != nil {
		t.Fatal(err)
	}
	frames := fb.frames
	if len(frames) != 3 {
		t.Fatalf("got %d segments, want 3", len(frames))
	}
	ops := []byte{wire.OpWriteFirst, wire.OpWriteMiddle, wire.OpWriteLast}
	var reassembled []byte
	for i, f := range frames {
		p, err := wire.Parse(f)
		if err != nil {
			t.Fatal(err)
		}
		if p.BTH.Opcode != ops[i] {
			t.Fatalf("segment %d opcode %#x, want %#x", i, p.BTH.Opcode, ops[i])
		}
		if p.BTH.PSN != uint32(41+i) {
			t.Fatalf("segment %d PSN %d", i, p.BTH.PSN)
		}
		if i == 0 && (p.Reth == nil || p.Reth.DMALen != uint32(len(payload))) {
			t.Fatalf("first segment RETH = %+v", p.Reth)
		}
		reassembled = append(reassembled, p.Payload...)
	}
	if string(reassembled) != string(payload) {
		t.Fatal("reassembled payload differs")
	}
	var fc frameCheck
	if err := fc.verify(frames, m); err != nil {
		t.Fatal(err)
	}
}

// The self-check must reject divergent frames.
func TestVerifySegmentsRejectsTampering(t *testing.T) {
	m := &Message{Op: OpWrite, DstQPN: 9, RemoteAddr: 0x1000, RKey: 5,
		Length: 8, Data: []byte("12345678"), Seq: 1}
	var fb frameBuf
	if err := fb.encode(m, 4096); err != nil {
		t.Fatal(err)
	}
	var fc frameCheck
	wrong := &Message{Op: OpWrite, DstQPN: 9, RemoteAddr: 0x2000, RKey: 5,
		Length: 8, Data: []byte("12345678"), Seq: 1}
	if err := fc.verify(fb.frames, wrong); err == nil {
		t.Fatal("address mismatch not caught")
	}
	short := &Message{Op: OpWrite, DstQPN: 9, RemoteAddr: 0x1000, RKey: 5,
		Length: 4, Data: []byte("1234"), Seq: 1}
	if err := fc.verify(fb.frames, short); err == nil {
		t.Fatal("length mismatch not caught")
	}
}

// TestMPTMissPenaltyGated pins the MR-context (MPT) pricing contract:
// profiles with MPTMissPenalty 0 never touch the ICM cache for MR contexts
// (legacy timing is bit-for-bit untouched), while a priced profile charges
// the fetch penalty exactly once per cold MR context.
func TestMPTMissPenaltyGated(t *testing.T) {
	run := func(p Profile, n int) (*NIC, sim.Duration) {
		eng, a, b, region := loopRig(t, p)
		var comps []Completion
		connect(t, a, b, func(c Completion) { comps = append(comps, c) })
		for i := 0; i < n; i++ {
			a.PostSend(1, &WQE{WRID: uint64(i), Op: OpRead,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: 8})
			eng.Run()
		}
		last := comps[len(comps)-1]
		return b, last.DoneTime.Sub(last.PostTime)
	}

	// Gated off: the responder's ICM cache holds the QP context only.
	srv, legacyCold := run(CX4, 1)
	for _, k := range srv.QPC().Keys() {
		if k == MRCtxKey(77) {
			t.Fatal("MPTMissPenalty=0 profile installed an MR context")
		}
	}

	// Gated on: same profile except MR contexts are priced.
	priced := CX4
	priced.MPTMissPenalty = 2 * sim.Microsecond
	srv, pricedCold := run(priced, 1)
	if !srv.QPC().Contains(MRCtxKey(77)) {
		t.Fatal("priced profile did not install the MR context")
	}
	if d := pricedCold - legacyCold; d != priced.MPTMissPenalty {
		t.Fatalf("cold-read delta = %v, want exactly one MPT penalty (%v)", d, priced.MPTMissPenalty)
	}

	// Warm path: the second read pays no MPT penalty, so the priced and
	// legacy profiles agree once the context is resident.
	_, legacyWarm := run(CX4, 2)
	_, pricedWarm := run(priced, 2)
	if legacyWarm != pricedWarm {
		t.Fatalf("warm reads diverge: legacy %v vs priced %v", legacyWarm, pricedWarm)
	}
}
