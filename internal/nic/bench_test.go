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

// BenchmarkFrameRoundTrip is the CI-guarded wire-fidelity path every packet
// takes: encode a message into an envelope's
// reusable frame buffer, then parse and verify the frames against the
// message the way Deliver does. Each iteration round-trips a READ request,
// a READ response and a 4 KiB WRITE that a 1 KiB path MTU segments into
// FIRST/MIDDLE/MIDDLE/LAST packets. Once the buffers have grown it must stay allocation-free —
// scripts/benchguard.go fails the bench-guard job if allocs/op > 0.
func BenchmarkFrameRoundTrip(b *testing.B) {
	const mtu = 1024
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msgs := []*Message{
		{Op: OpRead, DstQPN: 9, RemoteAddr: 0x1000, RKey: 5, Length: 64, PSN: 41},
		{Op: OpRead, IsResp: true, DstQPN: 3, Length: 64, Data: payload[:64], PSN: 41, AckPSN: 41},
		{Op: OpWrite, DstQPN: 9, RemoteAddr: 0x2000, RKey: 5, Length: len(payload), Data: payload, PSN: 42},
	}
	var fb frameBuf
	var fc frameCheck
	roundTrip := func() {
		for _, m := range msgs {
			if err := fb.encode(m, mtu); err != nil {
				b.Fatal(err)
			}
			if err := fc.verify(fb.frames, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	roundTrip() // grow the buffers
	if len(fb.frames) != 4 {
		b.Fatalf("4 KiB WRITE encoded as %d frames, want 4", len(fb.frames))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
