package rednlite

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
)

// BenchmarkRednChain is a full offloaded branch on a fresh CX-5 pair: one
// op assembles the taken arm, launches it with one doorbell and drains the
// chain — the CAS gate, both barriers, the gate self-modify, the ENABLE
// release and the unrolled 16×4 write burst all retire through the SQ
// state machine. scripts/benchguard.go gates its allocs/op.
func BenchmarkRednChain(b *testing.B) {
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		c := lab.New(lab.Config{Profile: nic.CX5, Seed: 1 + int64(i)})
		mr, err := c.RegisterServerMR(2 << 20)
		if err != nil {
			b.Fatal(err)
		}
		mainConn, err := c.Dial(0, 64)
		if err != nil {
			b.Fatal(err)
		}
		branchConn, err := c.Dial(0, 1024)
		if err != nil {
			b.Fatal(err)
		}
		code, err := branchConn.Client.AllocPD().RegMR(1024*nic.SQSlotBytes, host.Page4K, 0)
		if err != nil {
			b.Fatal(err)
		}
		mainLane, err := NewLane(mainConn.QP, mainConn.CQ, nil)
		if err != nil {
			b.Fatal(err)
		}
		branchLane, err := NewLane(branchConn.QP, branchConn.CQ, code)
		if err != nil {
			b.Fatal(err)
		}
		mr.Bytes()[0] = 7 // taken
		branch, err := NewBranch(branchLane)
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 4096)
		branch.Loop(16, func(ch *Chain) {
			for k := 0; k < 4; k++ {
				ch.Write(payload, mr.Describe(uint64(512<<10+k*4096)), 4096)
			}
		})
		if err := New(mainLane).If(mr.Describe(0), 7, branch).Launch(); err != nil {
			b.Fatal(err)
		}
		c.Run()
		fired += c.Eng.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
