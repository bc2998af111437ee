package lab_test

import (
	"math/rand"
	"testing"

	"github.com/thu-has/ragnar/internal/appnvmf"
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/traffic"
	"github.com/thu-has/ragnar/internal/verbs"
)

// TestCompletionDigestPinned pins the completion digest of four rigs at seed
// 1: every CQE's done time in picoseconds, QPN, WRID and status. A change to
// the engine or the datapath that should leave the schedule alone must keep
// these values; one that moves any completion by a picosecond changes them,
// even when every rendered golden stays the same.
func TestCompletionDigestPinned(t *testing.T) {
	rigs := []struct {
		name string
		run  func(t *testing.T) *lab.Topology
		want uint64
	}{
		{"covert-intermr-cx5", digestCovert, 0xfd3b62cec7ae9dce},
		{"nvmf-default-400us", digestNvmf, 0xe5db66b167094a1f},
		{"tenants-lossy-cx5", func(t *testing.T) *lab.Topology { return digestTenants(t, nic.CX5) }, 0x0d82871846462f9b},
		{"tenants-lossy-cx5iso", func(t *testing.T) *lab.Topology { return digestTenants(t, nic.CX5ISO) }, 0xd8e9e3ab910ff283},
	}
	for _, r := range rigs {
		t.Run(r.name, func(t *testing.T) {
			topo := r.run(t)
			if err := topo.DrainCheck(); err != nil {
				t.Fatal(err)
			}
			if got := topo.CompletionDigest(); got != r.want {
				t.Errorf("completion digest %#016x, want %#016x", got, r.want)
			}
		})
	}
}

// digestCovert transmits 32 random bits over the CX-5 inter-MR channel.
func digestCovert(t *testing.T) *lab.Topology {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Seed = 1
	topo := lab.Pair(cfg)
	ch, err := covert.NewInterMRChannelOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bits := make(bitstream.Bits, 32)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	if _, err := ch.Transmit(bits); err != nil {
		t.Fatal(err)
	}
	topo.Run()
	return topo
}

// digestNvmf runs the NVMe-oF default 70/30 workload for 400 µs and drains.
func digestNvmf(t *testing.T) *lab.Topology {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Seed = 1
	cfg.Clients = 1
	topo := lab.Pair(cfg)
	tgt, err := appnvmf.NewTarget(topo.Server, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := tgt.Serve(64)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := appnvmf.NewInitiator(topo.Clients[0], tq, appnvmf.DefaultWorkload(sim.DeriveSeed(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	ini.Start()
	topo.RunFor(400 * sim.Microsecond)
	ini.Stop()
	topo.Run()
	if st := ini.Stats(); st.Completed == 0 || st.ErrStatus > 0 || st.DataErrors > 0 {
		t.Fatalf("nvmf stats %+v", st)
	}
	return topo
}

// digestTenants runs four 2 KiB WRITE victims beside a 4 KiB READ aggressor
// on a Star with 0.2 % loss on every segment and a 50 µs retry timeout. The
// aggressor keeps 16 READs in flight, twice a CX5-ISO tenant's credit pool,
// so on that profile its requests queue for credits and its retransmitted
// READs re-enter the responder while the first copy holds one.
func digestTenants(t *testing.T, p nic.Profile) *lab.Topology {
	const victims = 4
	cfg := lab.DefaultConfig(p)
	cfg.Seed = 1
	cfg.Clients = victims + 1 // client 0 is the aggressor
	topo := lab.Star(cfg)
	mr, err := topo.RegisterServerMR(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]*traffic.Generator, victims+1)
	for i := range gens {
		conn, err := topo.Dial(i, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.Warm(conn, mr); err != nil {
			t.Fatal(err)
		}
		for _, qp := range []*verbs.QP{conn.QP, conn.ServerQP()} {
			if err := qp.SetRetry(50*sim.Microsecond, 1000); err != nil {
				t.Fatal(err)
			}
		}
		gens[i] = &traffic.Generator{
			QP: conn.QP, CQ: conn.CQ, Op: nic.OpWrite, MsgSize: 2048, Depth: 2,
			Next: traffic.FixedTarget(mr.Describe(uint64(i) * (256 << 10))),
		}
	}
	gens[0].Op, gens[0].MsgSize, gens[0].Depth = nic.OpRead, 4096, 16
	gens[0].Next = traffic.FixedTarget(mr.Describe(4 << 20))
	topo.InjectLoss(sim.DeriveSeed(1, 1<<32), 0.002)
	for _, g := range gens[1:] {
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
	}
	topo.RunFor(100 * sim.Microsecond)
	if err := gens[0].Start(); err != nil {
		t.Fatal(err)
	}
	topo.RunFor(200 * sim.Microsecond)
	for _, g := range gens {
		g.Stop()
	}
	topo.Run()
	for i, g := range gens {
		if g.Errors() > 0 || g.Completed() == 0 {
			t.Fatalf("generator %d: %d completed, %d errors", i, g.Completed(), g.Errors())
		}
	}
	return topo
}
