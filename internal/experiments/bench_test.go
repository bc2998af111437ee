package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// BenchmarkLossGrid is the heaviest composite experiment, retransmission
// paths hot: the CX-5 loss grid at 96 bits × 2 reps, one worker.
// scripts/benchguard.go gates its allocs/op.
func BenchmarkLossGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LossGrid(nic.CX5, 96, 2, nil, 1+int64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefGrid is the defense Pareto grid: the full attack battery
// against the CX5-ISO hardening ladder — DWRR arbitration, constant-time
// TPU and AES-per-verb paths all hot — on one worker. scripts/benchguard.go
// gates its allocs/op.
func BenchmarkDefGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DefGrid(nic.CX5, 1+int64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}
