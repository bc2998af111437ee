package lab

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// BenchmarkClosForward is Clos forwarding end to end: one op builds a CX-5
// Clos and drains a 32-WRITE burst of 2 KiB from a far-leaf client to the
// server — trunks, ECMP hashing and both switch tiers all on the path.
// scripts/benchguard.go gates its allocs/op.
func BenchmarkClosForward(b *testing.B) {
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		c := Clos(ClosConfig{Seed: 1 + int64(i), Profile: nic.CX5})
		mr, err := c.RegisterServerMR(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		conn, err := c.Dial(len(c.Clients)-1, 32)
		if err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 32; w++ {
			if err := conn.QP.PostWrite(uint64(w), nil, mr.Describe(uint64(w)*2048), 2048); err != nil {
				b.Fatal(err)
			}
		}
		c.Run()
		fired += c.Eng.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
