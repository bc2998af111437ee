package parallel

import (
	"testing"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/sim"
)

// BenchmarkEngineParallelXfer is the inter-domain channel steady state:
// two domains ping-ponging one packet, so each op is one full
// stage→barrier→drain→deliver cycle (one window per hop). The bench-guard
// CI job gates this at 0 allocs/op — staging rings, the delivery inbox and
// the destination engine's slot slab must all recycle, the same way the
// serial scheduler's schedule+fire path does.
func BenchmarkEngineParallelXfer(b *testing.B) {
	b.ReportAllocs()
	g := NewGroup()
	da := g.AddDomain(sim.NewEngine(1))
	db := g.AddDomain(sim.NewEngine(1))

	n := 0
	var ab, ba *Chan
	ab = g.Connect(da, db, prop, func(p fabric.Packet) {
		ba.Send(db.Eng.Now().Add(prop), p)
	})
	ba = g.Connect(db, da, prop, func(p fabric.Packet) {
		n++
		if n < b.N {
			ab.Send(da.Eng.Now().Add(prop), p)
		}
	})

	b.ResetTimer()
	da.Eng.At(da.Eng.Now().Add(prop), func() {
		ab.Send(da.Eng.Now().Add(prop), fabric.Packet{Dst: 1, Bytes: 1024})
	})
	g.Run()
	if n != b.N {
		b.Fatalf("completed %d round trips, want %d", n, b.N)
	}
	b.ReportMetric(float64(da.Eng.Fired()+db.Eng.Fired())/float64(b.N), "events/op")
}
