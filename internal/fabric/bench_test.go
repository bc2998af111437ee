package fabric

import (
	"testing"

	"github.com/thu-has/ragnar/internal/sim"
)

// BenchmarkSwitchForward is the CI-guarded switch forwarding hot path: a
// paced injector streams routed packets through Ingress — address lookup,
// shared-buffer admission, the FwdDelay pipeline ring — onto an egress
// link's ETS scheduler and out through serialization and propagation. After
// the warm-up phase grows the rings, every packet must forward end to end
// without allocating (scripts/benchguard.go fails the bench-guard job if
// allocs/op > 0, same gate as the engine and disabled-trace paths).
func BenchmarkSwitchForward(b *testing.B) {
	// 1024 B at 100 Gbps serializes in ~82 ns, under the 200 ns injection
	// pace, so queues stay bounded and the steady state is one packet in the
	// forwarding pipe plus one on the wire.
	const pace = 200 * sim.Nanosecond
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{
		Name:           "bench",
		FwdDelay:       300 * sim.Nanosecond,
		SharedBufBytes: 1 << 20,
		XOffBytes:      96 << 10,
	})
	delivered := 0
	out := sw.AddPort("host", 100, 100*sim.Nanosecond, 0, DefaultQoS(), func(Packet) { delivered++ })
	sw.Route(1, out)

	const warm = 256
	total := b.N + warm
	n := 0
	var inject func()
	inject = func() {
		n++
		sw.Ingress(Packet{TC: 3, Bytes: 1024, Dst: 1})
		if n < total {
			e.After(pace, inject)
		}
	}
	e.After(pace, inject)
	e.RunFor(sim.Duration(warm) * pace)
	warmFired := e.Fired()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if delivered != total {
		b.Fatalf("delivered %d of %d packets", delivered, total)
	}
	if sw.BufUsed() != 0 {
		b.Fatalf("shared buffer not drained: %d bytes", sw.BufUsed())
	}
	b.ReportMetric(float64(e.Fired()-warmFired)/float64(b.N), "events/op")
}

// BenchmarkLinkAdversaryOff is the CI-guarded no-adversary injection-hook
// path: every benign link in every rig now carries the Adversary tap in
// finishTx, so that nil check must stay free — packets clock through
// queueing, ETS, serialization and propagation with 0 allocs/op exactly as
// they did before the hook existed (scripts/benchguard.go gates it alongside
// SwitchForward).
func BenchmarkLinkAdversaryOff(b *testing.B) {
	const pace = 200 * sim.Nanosecond
	e := sim.NewEngine(1)
	delivered := 0
	l := NewLink(e, "bench", 100, 100*sim.Nanosecond, 0, func(Packet) { delivered++ })

	const warm = 256
	total := b.N + warm
	n := 0
	var inject func()
	inject = func() {
		n++
		if err := l.Send(Packet{TC: 3, Bytes: 1024}); err != nil {
			b.Errorf("send: %v", err)
		}
		if n < total {
			e.After(pace, inject)
		}
	}
	e.After(pace, inject)
	e.RunFor(sim.Duration(warm) * pace)
	warmFired := e.Fired()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if delivered != total {
		b.Fatalf("delivered %d of %d packets", delivered, total)
	}
	b.ReportMetric(float64(e.Fired()-warmFired)/float64(b.N), "events/op")
}
