package appnvmf

import (
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

// BenchmarkNvmfIO is the NVMe-oF victim's I/O path: one op runs the
// default workload on a fresh CX-5 pair for 1 ms of virtual time —
// command capsule SENDs, the target's WRITE/READ data phase, completion
// capsules and the responder's per-QP placement gate — then drains.
// scripts/benchguard.go gates its allocs/op.
func BenchmarkNvmfIO(b *testing.B) {
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		seed := 1 + int64(i)
		c := lab.New(lab.Config{Profile: nic.CX5, Seed: seed})
		tgt, err := NewTarget(c.Server, 2<<20)
		if err != nil {
			b.Fatal(err)
		}
		tq, err := tgt.Serve(64)
		if err != nil {
			b.Fatal(err)
		}
		ini, err := NewInitiator(c.Clients[0], tq, DefaultWorkload(seed))
		if err != nil {
			b.Fatal(err)
		}
		ini.Start()
		c.RunFor(sim.Millisecond)
		ini.Stop()
		c.Run()
		fired += c.Eng.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
