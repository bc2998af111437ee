package main

import (
	"fmt"
	"math/rand"

	"github.com/thu-has/ragnar/internal/appnvmf"
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/telemetry"
	"github.com/thu-has/ragnar/internal/traffic"
	"github.com/thu-has/ragnar/internal/verbs"
)

// A workload builds one rig per cell. build is the set-up (topology, MR
// registration, dial, warm) and returns the rig's timed unit of work; the
// benchmark loop times the two separately.
type workload struct {
	name  string
	build func(seed int64, tr *tracer) (*rig, error)
}

// rig is one built cell. work runs the cell's timed unit of work through
// stop and drain; check and digest read its simulated outcome afterwards.
type rig struct {
	topo   *lab.Topology
	work   func(tr *tracer) error
	check  func() error
	digest func(d *digest)
}

var workloads = []workload{covert64b(), nvmfRW(), tenantsLossy(tenantLossProb, tenantRetryLimit)}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// covertBits is the payload length of one covert-64b transmit: 32 symbols
// of 15.72 µs, ~0.5 ms of simulated channel time per cell, short enough for
// well over 100 cells per run.
const covertBits = 32

// covert64b is the paper's headline channel (CX5 inter-MR, 64 B READs) at
// its smallest message size, so per-event and per-packet simulator cost
// dominates; the switch, loss recovery, telemetry and ULPs sit idle.
func covert64b() workload {
	return workload{
		name: "covert-64b",
		build: func(seed int64, tr *tracer) (*rig, error) {
			cfg := lab.DefaultConfig(nic.CX5)
			cfg.Seed = seed
			s := tr.begin("lab.Pair")
			topo := lab.Pair(cfg)
			tr.end(s)
			s = tr.begin("covert.NewInterMRChannel")
			ch, err := covert.NewInterMRChannelOn(topo)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			bits := make(bitstream.Bits, covertBits)
			for i := range bits {
				bits[i] = uint8(rng.Intn(2))
			}
			var run *covert.ULIRun
			return &rig{
				topo: topo,
				work: func(tr *tracer) error {
					stop := tr.sampleQueue(topo.Eng)
					s := tr.begin("covert.Transmit")
					var err error
					run, err = ch.Transmit(bits)
					tr.end(s)
					stop()
					s = tr.begin("lab.Run")
					topo.Run()
					tr.end(s)
					return err
				},
				check: func() error {
					return failedCompletions(ch.RxConn.CQ, ch.TxConn.CQ)
				},
				digest: func(d *digest) {
					d.add("decoded", run.Decoded)
					d.add("samples", len(run.Samples))
				},
			}, nil
		},
	}
}

// nvmfSlice is the simulated time the initiator issues commands for in one
// nvmf-rw cell before it stops and the queue drains.
const (
	nvmfSlice    = 400 * sim.Microsecond
	nvmfNSBytes  = 2 << 20
	nvmfTargetQD = 64
)

// nvmfRW runs the NVMe-oF storage victim's default 70/30 read/write mix:
// two-sided capsules plus multi-packet RDMA data phases move per-byte cost
// (payload copies, ICRC) to the front, and uli/covert do no work.
func nvmfRW() workload {
	return workload{
		name: "nvmf-rw",
		build: func(seed int64, tr *tracer) (*rig, error) {
			cfg := lab.DefaultConfig(nic.CX5)
			cfg.Seed = seed
			cfg.Clients = 1
			s := tr.begin("lab.Pair")
			topo := lab.Pair(cfg)
			tr.end(s)
			s = tr.begin("appnvmf.NewTarget")
			tgt, err := appnvmf.NewTarget(topo.Server, nvmfNSBytes)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin("appnvmf.Serve")
			tq, err := tgt.Serve(nvmfTargetQD)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin("appnvmf.NewInitiator")
			ini, err := appnvmf.NewInitiator(topo.Clients[0], tq, appnvmf.DefaultWorkload(sim.DeriveSeed(seed, 1)))
			tr.end(s)
			if err != nil {
				return nil, err
			}
			return &rig{
				topo: topo,
				work: func(tr *tracer) error {
					stop := tr.sampleQueue(topo.Eng)
					ini.Start()
					s := tr.begin("lab.RunFor")
					topo.RunFor(nvmfSlice)
					tr.end(s)
					ini.Stop()
					stop()
					s = tr.begin("lab.Run")
					topo.Run()
					tr.end(s)
					return nil
				},
				check: func() error {
					st, tc := ini.Stats(), tgt.Counters()
					switch {
					case st.DataErrors > 0:
						return fmt.Errorf("nvmf: %d read payloads failed verification", st.DataErrors)
					case st.ErrStatus > 0:
						return fmt.Errorf("nvmf: %d commands completed with an error status", st.ErrStatus)
					case tc.BadCapsules > 0:
						return fmt.Errorf("nvmf: target saw %d bad capsules", tc.BadCapsules)
					case tq.Errors > 0:
						return fmt.Errorf("nvmf: %d target backend verbs failed", tq.Errors)
					case ini.Outstanding() > 0:
						return fmt.Errorf("nvmf: %d commands still outstanding after drain", ini.Outstanding())
					case st.Completed == 0:
						return fmt.Errorf("nvmf: no command completed")
					}
					return nil
				},
				digest: func(d *digest) {
					d.add("initiator", ini.Stats())
					d.add("target", tgt.Counters())
				},
			}, nil
		},
	}
}

// Tenant rig shape: victims post 2 KiB WRITEs at depth 2 beside one 4 KiB
// READ aggressor at depth 8 (the tenants experiment's traffic), over a
// lossy Star. The 50 µs retry timeout sits above the loaded round trip, so
// timeouts recover tail loss without firing spuriously; the limit is far
// above what 0.2% loss can exhaust.
const (
	tenantVictims     = 4
	tenantVictimSize  = 2048
	tenantVictimDepth = 2
	tenantAggSize     = 4096
	tenantAggDepth    = 8
	tenantLossProb    = 0.002
	tenantRetryTO     = 50 * sim.Microsecond
	tenantRetryLimit  = 1000
	tenantWarmup      = 20 * sim.Microsecond
	tenantWindow      = 50 * sim.Microsecond
	tenantTrainWins   = 4
	tenantScoreWins   = 4
)

// tenantsLossy is the noisy-neighbor loop of experiments.Tenants on a lossy
// Star: the only workload where the switch, go-back-N recovery, telemetry
// and defense do real work, and the largest rig, so set-up time moves. The
// benchmark runs it at tenantLossProb and tenantRetryLimit; tests raise the
// loss and cut the limit to make a cell fail.
func tenantsLossy(lossProb float64, retryLimit int) workload {
	return workload{
		name: "tenants-lossy",
		build: func(seed int64, tr *tracer) (*rig, error) {
			cfg := lab.DefaultConfig(nic.CX5)
			cfg.Seed = seed
			cfg.Clients = tenantVictims + 1 // client 0 is the aggressor
			s := tr.begin("lab.Star")
			topo := lab.Star(cfg)
			tr.end(s)
			s = tr.begin("lab.RegisterServerMR")
			mr, err := topo.RegisterServerMR(8 << 20)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			conns := make([]*lab.Conn, tenantVictims+1)
			for i := range conns {
				depth := tenantVictimDepth * 2
				if i == 0 {
					depth = tenantAggDepth * 2
				}
				s = tr.begin("lab.Dial")
				conn, err := topo.Dial(i, depth)
				tr.end(s)
				if err != nil {
					return nil, err
				}
				s = tr.begin("lab.Warm")
				err = topo.Warm(conn, mr)
				tr.end(s)
				if err != nil {
					return nil, err
				}
				for _, qp := range []*verbs.QP{conn.QP, conn.ServerQP()} {
					if err := qp.SetRetry(tenantRetryTO, retryLimit); err != nil {
						return nil, err
					}
				}
				conns[i] = conn
			}
			topo.InjectLoss(sim.DeriveSeed(seed, 1<<32), lossProb)

			gens := make([]*traffic.Generator, len(conns))
			for i, conn := range conns {
				gens[i] = &traffic.Generator{
					QP: conn.QP, CQ: conn.CQ, Op: nic.OpWrite,
					MsgSize: tenantVictimSize, Depth: tenantVictimDepth,
					Next: traffic.FixedTarget(mr.Describe(uint64(i) * (256 << 10))),
				}
			}
			gens[0].Op, gens[0].MsgSize, gens[0].Depth = nic.OpRead, tenantAggSize, tenantAggDepth
			gens[0].Next = traffic.FixedTarget(mr.Describe(4 << 20))
			victims := gens[1:]
			scores := make([]float64, tenantVictims)

			snap := func(tr *tracer, i int) telemetry.Snapshot {
				a, ok := tr.allocsBefore()
				s := tr.begin("telemetry.Snap")
				v := telemetry.Snap(topo.Eng, topo.Clients[i+1].NIC())
				tr.end(s)
				tr.allocsAfter(a, ok)
				return v
			}
			return &rig{
				topo: topo,
				work: func(tr *tracer) error {
					stop := tr.sampleQueue(topo.Eng)
					for _, g := range victims {
						if err := g.Start(); err != nil {
							return err
						}
					}
					s := tr.begin("lab.RunFor")
					topo.RunFor(tenantWarmup)
					tr.end(s)
					// Train one HARMONIC per victim on aggressor-idle windows.
					series := make([][]telemetry.Snapshot, tenantVictims)
					for i := range victims {
						series[i] = append(series[i], snap(tr, i))
					}
					for w := 0; w < tenantTrainWins; w++ {
						s = tr.begin("lab.RunFor")
						topo.RunFor(tenantWindow)
						tr.end(s)
						for i := range victims {
							series[i] = append(series[i], snap(tr, i))
						}
					}
					dets := make([]*defense.Harmonic, tenantVictims)
					for i := range dets {
						s = tr.begin("defense.TrainHarmonic")
						dets[i] = defense.TrainHarmonic(telemetry.WindowedDeltas(series[i]))
						tr.end(s)
					}
					// Contention: the aggressor runs and every victim window
					// is scored against its own baseline.
					if err := gens[0].Start(); err != nil {
						return err
					}
					prev := make([]telemetry.Snapshot, tenantVictims)
					for i := range victims {
						prev[i] = snap(tr, i)
					}
					for w := 0; w < tenantScoreWins; w++ {
						s = tr.begin("lab.RunFor")
						topo.RunFor(tenantWindow)
						tr.end(s)
						for i := range victims {
							cur := snap(tr, i)
							s = tr.begin("telemetry.Delta")
							d := telemetry.Delta(prev[i], cur)
							tr.end(s)
							prev[i] = cur
							s = tr.begin("defense.Score")
							if v := dets[i].Score(d); v > scores[i] {
								scores[i] = v
							}
							tr.end(s)
						}
					}
					for _, g := range gens {
						g.Stop()
					}
					stop()
					s = tr.begin("lab.Run")
					topo.Run()
					tr.end(s)
					return nil
				},
				check: func() error {
					for i, g := range gens {
						if g.Errors() > 0 {
							return fmt.Errorf("tenants: generator %d saw %d failed completions", i, g.Errors())
						}
						if g.Completed() == 0 {
							return fmt.Errorf("tenants: generator %d completed nothing", i)
						}
					}
					cqs := make([]*verbs.CQ, len(conns))
					for i, conn := range conns {
						cqs[i] = conn.CQ
					}
					return failedCompletions(cqs...)
				},
				digest: func(d *digest) {
					for _, g := range gens {
						d.add("completed", g.Completed())
					}
					d.add("scores", scores)
					for _, sw := range topo.Switches {
						for tc := 0; tc < 8; tc++ {
							d.add("switch", sw.PFCPauses(tc), sw.BufDrops(tc))
						}
					}
				},
			}, nil
		},
	}
}

// failedCompletions polls completions that arrived after their consumer
// stopped (generators disarm their CQ on Stop; the drain delivers the rest
// here) and reports any that finished in error.
func failedCompletions(cqs ...*verbs.CQ) error {
	var buf [64]nic.Completion
	for _, cq := range cqs {
		for n := cq.PollInto(buf[:]); n > 0; n = cq.PollInto(buf[:]) {
			for _, c := range buf[:n] {
				if c.Status != nic.StatusOK {
					return fmt.Errorf("completion: QP %d WR %d finished with status %v", c.QPN, c.WRID, c.Status)
				}
			}
		}
	}
	return nil
}
