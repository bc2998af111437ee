package nic

import (
	"testing"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/sim"
)

// FuzzPSNWindow fuzzes the go-back-N transport window: a write burst crosses
// the 24-bit PSN wraparound under fuzzer-chosen loss, corruption and burst
// loss on both directions. Whatever the impairment, the invariants hold:
//
//   - every posted WQE completes exactly once (no lost, no duplicate CQEs);
//   - on an all-OK run the requester and responder agree on the next PSN,
//     the transport window drains, and responder memory saw every byte
//     exactly once (conservation through retransmission);
//   - a retry-exhausted run marks the QP failed and rejects further posts;
//   - each retransmit-timer expiry resends at least one packet.
//
// The rig is fully deterministic for a given input (fault RNGs derive from
// the fuzz seeds, never the engine's stream), so any crasher reproduces.
func FuzzPSNWindow(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(0), uint16(0), uint8(0), uint16(3), uint8(6), uint8(64))
	f.Add(int64(11), int64(12), uint16(2000), uint16(0), uint8(0), uint16(1), uint8(20), uint8(255))
	f.Add(int64(21), int64(22), uint16(4500), uint16(1500), uint8(2), uint16(40), uint8(32), uint8(1))
	f.Add(int64(7), int64(8), uint16(9999), uint16(3000), uint8(3), uint16(0), uint8(16), uint8(128))
	f.Fuzz(func(t *testing.T, seedAB, seedBA int64, lossRaw, corruptRaw uint16,
		burstRaw uint8, startRaw uint16, msgsRaw, sizeRaw uint8) {
		loss := float64(lossRaw%4500) / 10000       // 0 .. 0.4499 per direction
		corrupt := float64(corruptRaw%3000) / 10000 // 0 .. 0.2999
		msgs := 1 + int(msgsRaw%32)
		msgLen := 1 + int(sizeRaw)
		startPSN := (psnMask - uint32(startRaw%48)) & psnMask // near the wrap

		eng := sim.NewEngine(1)
		hA := host.New(host.H2)
		hB := host.New(host.H3)
		a := New(eng, "a", CX4, hA)
		b := New(eng, "b", CX4, hB)
		ab := fabric.NewLink(eng, "a->b", CX4.LineRateGbps, 200*sim.Nanosecond, 0, Deliver)
		ba := fabric.NewLink(eng, "b->a", CX4.LineRateGbps, 200*sim.Nanosecond, 0, Deliver)
		a.AddPeerLink(b, ab)
		b.AddPeerLink(a, ba)
		ab.SetFaultPlan(&fabric.FaultPlan{Seed: seedAB, DropProb: loss, CorruptProb: corrupt, BurstLen: int(burstRaw % 4)})
		ba.SetFaultPlan(&fabric.FaultPlan{Seed: seedBA, DropProb: loss})

		region, err := hB.Alloc(2<<20, host.Page2M)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.RegisterMR(MRInfo{Key: 77, Base: region.Base(), Size: region.Size(),
			Region: region, PageSize: uint64(host.Page2M), RemoteWrite: true}); err != nil {
			t.Fatal(err)
		}
		completed := map[uint64]int{}
		okComps, errComps := 0, 0
		if err := a.CreateQP(1, func(c Completion) {
			completed[c.WRID]++
			switch c.Status {
			case StatusOK:
				okComps++
			case StatusRetryExcErr:
				errComps++
			default:
				t.Fatalf("unexpected completion status %v", c.Status)
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
		recvBytes := 0
		if err := b.CreateQP(2, nil, func(ev RecvEvent) { recvBytes += ev.Bytes }); err != nil {
			t.Fatal(err)
		}
		if err := a.ConnectQP(1, b, 2); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectQP(2, a, 1); err != nil {
			t.Fatal(err)
		}
		if err := a.SetQPRetry(1, 5*sim.Microsecond, 60); err != nil {
			t.Fatal(err)
		}
		// Start both sides just below the 24-bit wrap so the window always
		// crosses it (and NAK AckPSNs straddle the boundary).
		a.qps[1].nextPSN = startPSN
		b.qps[2].epsn = startPSN

		data := make([]byte, msgLen)
		for i := 0; i < msgs; i++ {
			if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: msgLen}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()

		if got := okComps + errComps; got != msgs {
			t.Fatalf("completions = %d (ok %d, err %d), posted %d", got, okComps, errComps, msgs)
		}
		for wrid, n := range completed {
			if n != 1 {
				t.Fatalf("WRID %d completed %d times", wrid, n)
			}
		}
		c := a.Counters()
		if c.Retransmits < c.Timeouts {
			t.Fatalf("Timeouts %d > Retransmits %d: an expiry resent nothing", c.Timeouts, c.Retransmits)
		}
		if errComps > 0 {
			// Retry exhaustion is a legitimate outcome under heavy impairment,
			// but it must leave the QP failed and closed to new work.
			if !a.QPFailed(1) {
				t.Fatal("error CQEs delivered without the QP marked failed")
			}
			if err := a.PostSend(1, &WQE{WRID: 999, Op: OpWrite, LocalData: data,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: msgLen}); err == nil {
				t.Fatal("PostSend on a failed QP succeeded")
			}
			return
		}
		// All-OK run: window drained, PSNs agree across the wrap, and the
		// responder saw each message exactly once despite retransmissions.
		if n := len(a.qps[1].outstanding); n != 0 {
			t.Fatalf("transport window still holds %d entries after drain", n)
		}
		if got, want := b.qps[2].epsn, a.qps[1].nextPSN; got != want {
			t.Fatalf("responder ePSN %#x != requester nextPSN %#x", got, want)
		}
		if want := (startPSN + uint32(msgs)) & psnMask; a.qps[1].nextPSN != want {
			t.Fatalf("nextPSN %#x, want %#x (wrap arithmetic)", a.qps[1].nextPSN, want)
		}
		if recvBytes != msgs*msgLen {
			t.Fatalf("responder received %d bytes, want %d", recvBytes, msgs*msgLen)
		}
	})
}

// scriptedAdversary is the fuzz-driven on-path attacker: it taps the
// request link, and for every frame it observes it consumes two script bytes
// deciding whether to forge a NAK or ACK at the requester, replay the
// request at the responder, or spray a QP-guess — through the same
// fabric.Link.Inject surface the nvmf experiment's adversaries use.
type scriptedAdversary struct {
	reqNIC, respNIC *NIC         // a (requester) and b (responder)
	toReq, toResp   *fabric.Link // ba and ab
	script          []byte
	pos             int
	guesses         uint64
}

func (s *scriptedAdversary) next() (byte, bool) {
	if s.pos >= len(s.script) {
		return 0, false
	}
	v := s.script[s.pos]
	s.pos++
	return v, true
}

func (s *scriptedAdversary) Observe(at sim.Time, p fabric.Packet) {
	op, ok := s.next()
	if !ok {
		return
	}
	param, _ := s.next()
	m, ok := SnoopPacket(p)
	if !ok || m.IsResp {
		return
	}
	switch op % 5 {
	case 1: // forged NAK at the requester, AckPSN skewed by the script
		s.toReq.Inject(ForgePacket(s.reqNIC, Message{
			Op: m.Op, SrcQPN: m.DstQPN, DstQPN: m.SrcQPN,
			IsResp: true, Status: StatusSeqNak, TC: m.TC,
			PSN: m.PSN, AckPSN: (m.PSN + uint32(param)) & psnMask,
		}))
	case 2: // forged ACK a quarter of the PSN space ahead: never launched here
		psn := (m.PSN + 1<<22 + uint32(param)) & psnMask
		s.toReq.Inject(ForgePacket(s.reqNIC, Message{
			Op: m.Op, SrcQPN: m.DstQPN, DstQPN: m.SrcQPN,
			IsResp: true, Status: StatusOK, TC: m.TC, PSN: psn, AckPSN: psn,
		}))
	case 3: // replay the captured request at the responder
		if cp, ok := ReplayPacket(p); ok {
			s.toResp.Inject(cp)
		}
	case 4: // QP-number guessing sweep frame (QPNs 100+ never exist)
		s.guesses++
		s.toResp.Inject(ForgePacket(s.respNIC, Message{
			Op: OpWrite, SrcQPN: m.SrcQPN, DstQPN: 100 + uint32(param),
			RKey: m.RKey, RemoteAddr: m.RemoteAddr, Length: 8,
			PSN: uint32(param), TC: m.TC,
		}))
	}
}

// FuzzAdversarialFrames interleaves legitimate traffic with script-driven
// forged and replayed frames under fuzzer-chosen wire loss. Whatever the
// adversary does within this envelope (forged NAKs with arbitrary AckPSN
// skew, forged ACKs at PSNs the requester has not launched, request
// replays, QP-guessing sprays), the reliability invariants must hold:
//
//   - every posted WQE completes exactly once — no duplicate CQEs, and no
//     forged CQE (only an ACK at the PSN of a request in flight can fake a
//     completion, and the forged ACKs here never carry one);
//   - byte conservation: on an all-OK run responder memory saw each posted
//     byte exactly once, replays notwithstanding;
//   - the QP either completes everything or lands in StatusRetryExcErr with
//     further posts rejected;
//   - every QP-guess frame is charged to RxBadQP.
func FuzzAdversarialFrames(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(0), uint8(8), uint8(64), []byte{})
	f.Add(int64(3), int64(4), uint16(0), uint8(12), uint8(128), []byte{1, 200, 2, 7, 3, 0, 4, 5})
	f.Add(int64(5), int64(6), uint16(1500), uint8(16), uint8(32), []byte{1, 0, 1, 1, 1, 255, 2, 2, 2, 3})
	f.Add(int64(7), int64(8), uint16(3000), uint8(24), uint8(255), []byte{3, 0, 3, 0, 4, 1, 4, 2, 1, 100})
	f.Fuzz(func(t *testing.T, seedAB, seedBA int64, lossRaw uint16,
		msgsRaw, sizeRaw uint8, script []byte) {
		loss := float64(lossRaw%4000) / 10000 // 0 .. 0.3999 per direction
		msgs := 1 + int(msgsRaw%32)
		msgLen := 1 + int(sizeRaw)

		eng := sim.NewEngine(1)
		hA := host.New(host.H2)
		hB := host.New(host.H3)
		a := New(eng, "a", CX4, hA)
		b := New(eng, "b", CX4, hB)
		ab := fabric.NewLink(eng, "a->b", CX4.LineRateGbps, 200*sim.Nanosecond, 0, Deliver)
		ba := fabric.NewLink(eng, "b->a", CX4.LineRateGbps, 200*sim.Nanosecond, 0, Deliver)
		a.AddPeerLink(b, ab)
		b.AddPeerLink(a, ba)
		ab.SetFaultPlan(&fabric.FaultPlan{Seed: seedAB, DropProb: loss})
		ba.SetFaultPlan(&fabric.FaultPlan{Seed: seedBA, DropProb: loss})

		region, err := hB.Alloc(2<<20, host.Page2M)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.RegisterMR(MRInfo{Key: 77, Base: region.Base(), Size: region.Size(),
			Region: region, PageSize: uint64(host.Page2M), RemoteWrite: true}); err != nil {
			t.Fatal(err)
		}
		adv := &scriptedAdversary{reqNIC: a, respNIC: b, toReq: ba, toResp: ab, script: script}
		ab.SetAdversary(adv)

		completed := map[uint64]int{}
		okComps, errComps := 0, 0
		if err := a.CreateQP(1, func(c Completion) {
			completed[c.WRID]++
			switch c.Status {
			case StatusOK:
				okComps++
			case StatusRetryExcErr:
				errComps++
			default:
				t.Fatalf("unexpected completion status %v", c.Status)
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
		recvBytes := 0
		if err := b.CreateQP(2, nil, func(ev RecvEvent) { recvBytes += ev.Bytes }); err != nil {
			t.Fatal(err)
		}
		if err := a.ConnectQP(1, b, 2); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectQP(2, a, 1); err != nil {
			t.Fatal(err)
		}
		if err := a.SetQPRetry(1, 5*sim.Microsecond, 60); err != nil {
			t.Fatal(err)
		}

		data := make([]byte, msgLen)
		for i := 0; i < msgs; i++ {
			if err := a.PostSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: data,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: msgLen}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()

		if got := okComps + errComps; got != msgs {
			t.Fatalf("completions = %d (ok %d, err %d), posted %d", got, okComps, errComps, msgs)
		}
		for wrid, n := range completed {
			if n != 1 {
				t.Fatalf("WRID %d completed %d times", wrid, n)
			}
		}
		c := b.Counters()
		if c.RxBadQP != adv.guesses {
			t.Fatalf("RxBadQP = %d, injected %d QP guesses", c.RxBadQP, adv.guesses)
		}
		if errComps > 0 {
			if !a.QPFailed(1) {
				t.Fatal("error CQEs delivered without the QP marked failed")
			}
			if err := a.PostSend(1, &WQE{WRID: 999, Op: OpWrite, LocalData: data,
				RemoteKey: 77, RemoteAddr: region.Base(), Length: msgLen}); err == nil {
				t.Fatal("PostSend on a failed QP succeeded")
			}
			return
		}
		if n := len(a.qps[1].outstanding); n != 0 {
			t.Fatalf("transport window still holds %d entries after drain", n)
		}
		if got, want := b.qps[2].epsn, a.qps[1].nextPSN; got != want {
			t.Fatalf("responder ePSN %#x != requester nextPSN %#x", got, want)
		}
		if recvBytes != msgs*msgLen {
			t.Fatalf("responder received %d bytes, want %d (conservation under replay)", recvBytes, msgs*msgLen)
		}
	})
}

// FuzzContextCache fuzzes the ICM context cache against a reference model:
// a brute-force map plus an MRU-ordered slice. Random Access/Evict/Flush
// sequences over a fuzzer-chosen capacity must preserve the invariants the
// exhaustion model leans on:
//
//   - resident entries never exceed capacity;
//   - hits + misses == lookups, exactly one of the two per Access;
//   - the eviction order is LRU (the model predicts every hit/miss, so a
//     miss is charged exactly one fetch penalty per fault, never more);
//   - Keys() reports exactly the model's residents in MRU→LRU order.
func FuzzContextCache(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 0, 1, 4, 5, 6, 7})
	f.Add(uint8(1), []byte{9, 9, 8, 9, 8, 8})
	f.Add(uint8(3), []byte{0x40, 1, 0x41, 2, 0x80, 3, 0xC0, 0})
	f.Add(uint8(16), []byte{250, 251, 252, 253, 254, 255, 250, 128, 0})
	f.Fuzz(func(t *testing.T, capRaw uint8, ops []byte) {
		capacity := 1 + int(capRaw%32)
		c := NewContextCache(capacity)

		// Reference model: MRU-first ordered slice of keys.
		var model []uint64
		find := func(key uint64) int {
			for i, k := range model {
				if k == key {
					return i
				}
			}
			return -1
		}
		var lookups, wantHits, wantMisses, wantEvicts uint64

		for _, op := range ops {
			key := uint64(op & 0x3f)
			switch op >> 6 {
			case 0, 1: // Access (half the opcode space: the common op)
				lookups++
				i := find(key)
				if i >= 0 {
					wantHits++
					model = append(model[:i], model[i+1:]...)
					model = append([]uint64{key}, model...)
					if !c.Access(key) {
						t.Fatalf("Access(%d) missed; model says resident", key)
					}
				} else {
					wantMisses++
					if len(model) == capacity {
						wantEvicts++
						model = model[:len(model)-1] // LRU = tail
					}
					model = append([]uint64{key}, model...)
					if c.Access(key) {
						t.Fatalf("Access(%d) hit; model says absent", key)
					}
				}
			case 2: // Evict
				i := find(key)
				if got := c.Evict(key); got != (i >= 0) {
					t.Fatalf("Evict(%d) = %v; model says %v", key, got, i >= 0)
				}
				if i >= 0 {
					model = append(model[:i], model[i+1:]...)
				}
			case 3: // Flush (rare)
				if key%8 == 0 {
					c.Flush()
					model = nil
				} else if got := c.Contains(key); got != (find(key) >= 0) {
					t.Fatalf("Contains(%d) = %v; model disagrees", key, got)
				}
			}

			if c.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", c.Len(), len(model))
			}
			if c.Len() > capacity {
				t.Fatalf("residents %d exceed capacity %d", c.Len(), capacity)
			}
		}

		hits, misses, evicts := c.Stats()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("stats hits=%d misses=%d, model %d/%d", hits, misses, wantHits, wantMisses)
		}
		if hits+misses != lookups {
			t.Fatalf("hits+misses = %d, lookups = %d", hits+misses, lookups)
		}
		if evicts != wantEvicts {
			t.Fatalf("evictions = %d, model %d (explicit Evict must not count)", evicts, wantEvicts)
		}
		keys := c.Keys()
		if len(keys) != len(model) {
			t.Fatalf("Keys len = %d, model %d", len(keys), len(model))
		}
		for i, k := range keys {
			if k != model[i] {
				t.Fatalf("Keys[%d] = %d, model (MRU order) has %d", i, k, model[i])
			}
		}
	})
}
