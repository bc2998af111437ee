package nic

import "testing"

// BenchmarkContextCacheHit is the CI-guarded ICM context-cache hit path: a
// resident context lookup is one map probe plus an intrusive-list splice,
// executed on the NIC datapath for every request (and, under priced
// profiles, for every MR access). It must stay allocation-free —
// scripts/benchguard.go fails the bench-guard job if allocs/op > 0, same
// gate as the engine, disabled-trace and switch forwarding paths.
func BenchmarkContextCacheHit(b *testing.B) {
	c := NewContextCache(2048)
	// Prime a working set that fits: every access below is a hit, with
	// enough keys that the LRU splice exercises non-head nodes too.
	const keys = 512
	for i := uint32(0); i < keys; i++ {
		c.Access(QPCtxKey(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(QPCtxKey(uint32(i) % keys)) {
			b.Fatal("hit path missed")
		}
	}
}

// BenchmarkFrameRoundTrip is the CI-guarded wire path every packet takes:
// encode a message into an envelope's reusable frame buffer, then decode
// the frames back into a message the way Deliver does. Each iteration
// round-trips a READ request, a READ response, an ACK, a NAK, both atomics
// and a 4 KiB WRITE that a 1 KiB path MTU segments into
// FIRST/MIDDLE/MIDDLE/LAST packets. Once the buffers have grown it must stay
// allocation-free — scripts/benchguard.go fails the bench-guard job if
// allocs/op > 0.
func BenchmarkFrameRoundTrip(b *testing.B) {
	const mtu = 1024
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msgs := []*Message{
		{Op: OpRead, DstQPN: 9, RemoteAddr: 0x1000, RKey: 5, Length: 64, PSN: 41},
		{Op: OpRead, IsResp: true, DstQPN: 3, Length: 64, Data: payload[:64], PSN: 41, AckPSN: 41},
		{Op: OpWrite, IsResp: true, DstQPN: 3, PSN: 40, AckPSN: 40},
		{Op: OpWrite, IsResp: true, DstQPN: 3, Status: StatusSeqNak, PSN: 41, AckPSN: 40},
		{Op: OpAtomicCAS, DstQPN: 9, RemoteAddr: 0x3000, RKey: 5, Length: 8, CompareAdd: 1, Swap: 2, PSN: 42},
		{Op: OpAtomicFAA, DstQPN: 9, RemoteAddr: 0x3008, RKey: 5, Length: 8, CompareAdd: 3, PSN: 43},
		{Op: OpWrite, DstQPN: 9, RemoteAddr: 0x2000, RKey: 5, Length: len(payload), Data: payload, PSN: 44},
	}
	var fb frameBuf
	var r frameReader
	var m Message
	roundTrip := func() {
		for _, want := range msgs {
			if err := fb.encode(want, mtu); err != nil {
				b.Fatal(err)
			}
			if err := r.decode(fb.frames, &m); err != nil {
				b.Fatal(err)
			}
			if m.PSN != want.PSN {
				b.Fatalf("decoded PSN %d, want %d", m.PSN, want.PSN)
			}
		}
	}
	roundTrip() // grow the buffers
	if len(fb.frames) != 4 || len(r.segs) != 4 {
		b.Fatalf("4 KiB WRITE encoded as %d frames, decoded as %d segments, want 4", len(fb.frames), len(r.segs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
