package covert

import (
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/nic"
)

// BenchmarkChannelInterMR is one full inter-MR covert transmit of 64 bits
// on a fresh CX-5 rig: NIC, fabric and transport all on the path.
// scripts/benchguard.go gates its allocs/op.
func BenchmarkChannelInterMR(b *testing.B) { benchTransmit(b, NewInterMRChannel) }

// BenchmarkChannelIntraMR is BenchmarkChannelInterMR for the intra-MR
// (Grain-IV offset) channel.
func BenchmarkChannelIntraMR(b *testing.B) { benchTransmit(b, NewIntraMRChannel) }

func benchTransmit(b *testing.B, mk func(nic.Profile, int64) (*ULIChannel, error)) {
	payload := bitstream.RandomBits(7, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		c, err := mk(nic.CX5, 1+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Transmit(payload); err != nil {
			b.Fatal(err)
		}
		fired += c.Cluster.Eng.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
