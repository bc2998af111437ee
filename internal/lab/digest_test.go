package lab_test

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/thu-has/ragnar/internal/appnvmf"
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/traffic"
	"github.com/thu-has/ragnar/internal/verbs"
	"github.com/thu-has/ragnar/internal/wire"
)

// TestCompletionDigestPinned pins the completion digest of seven rigs at seed
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
		{"nvmf-loss-0.5pct", digestNvmfLossy, 0x489377af61ca60fe},
		{"pair-lossy-payload", func(t *testing.T) *lab.Topology { return digestPayloads(t, nil) }, 0x3d4d784df16d19cb},
		{"clos-pfc-cx5", digestClosPFC, 0xc224f35fbe7093a0},
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

// digestClosPFC drains a burst of 8 KiB WRITEs from every client of a
// CX-5 Clos (two leaves, two spines, two hosts a leaf) to the server, on
// switches as shallow as the clos experiment's. The far leaf's two clients
// converge on the server's leaf port, which crosses XOFF, so its pause
// reaches the spines over the trunks one trunk delay later and backs the
// burst up across the fabric.
func digestClosPFC(t *testing.T) *lab.Topology {
	topo := lab.Clos(lab.ClosConfig{Seed: 1, Profile: nic.CX5, Switch: fabric.SwitchConfig{
		SharedBufBytes: 256 << 10,
		XOffBytes:      16 << 10,
	}})
	mr, err := topo.RegisterServerMR(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range topo.Clients {
		conn, err := topo.Dial(i, 16)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 16; w++ {
			if err := conn.QP.PostWrite(uint64(w), nil, mr.Describe(uint64(i)<<20+uint64(w)<<13), 8<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	topo.Run()
	var spinePFC uint64
	for _, sw := range topo.Switches[2:] { // the spines, whose every port is a trunk
		for tc := 0; tc < fabric.NumTCs; tc++ {
			spinePFC += sw.PFCPauses(tc)
		}
	}
	if spinePFC == 0 {
		t.Fatal("no spine asserted PFC: the rig does not pause a trunk")
	}
	return topo
}

// digestNvmfLossy builds the rig of the `ragnar nvmf` loss cell at seed 1 —
// the target serving the victim's queue and an idle attacker queue, a
// 200 µs retry timeout on every QP and 0.5 % loss on every link — and runs
// the victim for 1 ms, so capsules, multi-packet data WRITEs and READs
// landing in the target's staging buffers are all retransmitted. Both ends
// reuse their buffers at CQEs, so every retransmitted frame must carry the
// payload of its first transmission.
func digestNvmfLossy(t *testing.T) *lab.Topology {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Seed = sim.DeriveSeed(1, 1)
	cfg.Clients = 2
	topo := lab.Pair(cfg)
	tgt, err := appnvmf.NewTarget(topo.Server, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := tgt.Serve(64)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := appnvmf.NewInitiator(topo.Clients[0], tq, appnvmf.DefaultWorkload(sim.DeriveSeed(cfg.Seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	tq2, err := tgt.Serve(64)
	if err != nil {
		t.Fatal(err)
	}
	atkPD := topo.Clients[1].AllocPD()
	if _, err := atkPD.RegMR(1<<20, host.Page2M, verbs.AccessRemoteRead|verbs.AccessRemoteWrite); err != nil {
		t.Fatal(err)
	}
	atkCQ := topo.Clients[1].CreateCQ(0)
	atkCQ.Notify = func(nic.Completion) {}
	atkQP, err := topo.Clients[1].CreateQP(atkPD, atkCQ, verbs.QPCap{MaxSendWR: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := verbs.Connect(atkQP, tq2.QP()); err != nil {
		t.Fatal(err)
	}
	for _, qp := range []*verbs.QP{ini.QP(), tq.QP(), atkQP, tq2.QP()} {
		if err := qp.SetRetry(200*sim.Microsecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	iniResent := checkRetransmissions(t, topo.Clients[0].NIC())
	tgtResent := checkRetransmissions(t, topo.Server.NIC())
	topo.InjectLoss(sim.DeriveSeed(cfg.Seed, 1<<32), 0.005)
	ini.Start()
	topo.RunFor(sim.Millisecond)
	ini.Stop()
	topo.Run()
	st := ini.Stats()
	if st.Completed == 0 || st.ErrStatus > 0 || st.DataErrors > 0 || tq.Errors > 0 {
		t.Fatalf("nvmf stats %+v, target errors %d", st, tq.Errors)
	}
	if topo.Server.NIC().Counters().Retransmits == 0 || topo.Clients[0].NIC().Counters().Retransmits == 0 {
		t.Fatal("no retransmission on either side: the rig does not exercise loss recovery")
	}
	if *iniResent == 0 || *tgtResent == 0 {
		t.Fatalf("resent segments checked: %d from the initiator, %d from the target; want both", *iniResent, *tgtResent)
	}
	return topo
}

// checkRetransmissions taps n's departing frames and fails t when a request
// segment sent again carries another payload than it did before: the poster
// rewrote a buffer the NIC could still read. A segment is named by its
// message's PSN and its place in the message, because a message's frames
// number their PSNs from the message's own. The count it returns grows with
// each resent segment compared.
func checkRetransmissions(t *testing.T, n *nic.NIC) *int {
	type key struct {
		dst          [4]byte
		qp, psn, seg uint32
	}
	sent := map[key][]byte{}
	compared := new(int)
	var head uint32 // PSN of the message whose frames are being tapped
	n.Tap = func(_ sim.Time, frame []byte) {
		raw, ok := wire.DecapsulateUDP(frame)
		if !ok {
			t.Fatal("tapped a frame that is not RoCEv2")
		}
		pkt, err := wire.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		switch pkt.BTH.Opcode {
		case wire.OpSendFirst, wire.OpSendOnly, wire.OpWriteFirst, wire.OpWriteOnly:
			head = pkt.BTH.PSN
		case wire.OpSendMiddle, wire.OpSendLast, wire.OpWriteMiddle, wire.OpWriteLast:
		default:
			return // no payload from a buffer the poster owns
		}
		k := key{qp: pkt.BTH.DestQP, psn: head, seg: (pkt.BTH.PSN - head) & 0xffffff}
		copy(k.dst[:], frame[wire.EthHeaderBytes+16:])
		if first, ok := sent[k]; ok {
			if !bytes.Equal(first, pkt.Payload) {
				t.Fatalf("segment %d of the message to QP %d at PSN %d resent with another payload", k.seg, k.qp, k.psn)
			}
			*compared++
			return
		}
		sent[k] = bytes.Clone(pkt.Payload)
	}
	return compared
}

// digestPayloads runs three closed loops on one client of a Pair with 1 %
// loss on both links and a 20 µs retry timeout: 6 KiB WRITEs (two frames
// each), 1 KiB SENDs into posted receive buffers, and 6 KiB READs landing
// in a local buffer. Every payload is checked where it lands. tap, when not
// nil, sees the topology before any traffic flows.
func digestPayloads(t *testing.T, tap func(*lab.Topology)) *lab.Topology {
	const size, sendSize, window = 6 << 10, 1 << 10, 200 * sim.Microsecond
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Seed = 1
	cfg.Clients = 1
	topo := lab.Pair(cfg)
	if tap != nil {
		tap(topo)
	}
	mr, err := topo.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*13) ^ salt
		}
		return b
	}
	wdata, sdata, rdata := pattern(size, 0x11), pattern(sendSize, 0x22), pattern(size, 0x33)
	copy(mr.Bytes()[512<<10:], rdata)
	conns := make([]*lab.Conn, 3)
	for i := range conns {
		if conns[i], err = topo.Dial(0, 4); err != nil {
			t.Fatal(err)
		}
		for _, qp := range []*verbs.QP{conns[i].QP, conns[i].ServerQP()} {
			if err := qp.SetRetry(20*sim.Microsecond, 1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	wr, sd, rd := conns[0], conns[1], conns[2]
	sends := 0
	sd.ServerQP().OnRecv = func(ev nic.RecvEvent) {
		if ev.Op == nic.OpSend {
			if !bytes.Equal(ev.Data, sdata) {
				t.Fatalf("SEND %d delivered wrong bytes", sends)
			}
			sends++
		}
	}
	for i := 0; i < 64; i++ {
		if err := sd.ServerQP().PostRecv(make([]byte, sendSize)); err != nil {
			t.Fatal(err)
		}
	}
	rbufs := [][]byte{make([]byte, size), make([]byte, size)}
	stop := false
	var done [3]int
	post := func(k int, wrid uint64) {
		var err error
		switch k {
		case 0:
			err = wr.QP.PostWrite(wrid, wdata, mr.Describe(0), size)
		case 1:
			err = sd.QP.PostSend(wrid, sdata)
		case 2:
			buf := rbufs[wrid%2]
			clear(buf)
			err = rd.QP.PostRead(wrid, buf, mr.Describe(512<<10), size)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, cn := range conns {
		k := k
		next := uint64(2)
		cn.CQ.Notify = func(c nic.Completion) {
			if c.Status != nic.StatusOK {
				t.Fatalf("loop %d: WRID %d completed %v", k, c.WRID, c.Status)
			}
			if k == 2 && !bytes.Equal(rbufs[c.WRID%2], rdata) {
				t.Fatalf("READ %d landed wrong bytes", c.WRID)
			}
			done[k]++
			if !stop {
				post(k, next)
				next++
			}
		}
		post(k, 0)
		post(k, 1)
	}
	topo.InjectLoss(sim.DeriveSeed(1, 1<<32), 0.01)
	topo.RunFor(window)
	stop = true
	topo.Run()
	if !bytes.Equal(mr.Bytes()[:size], wdata) {
		t.Fatal("WRITE payload did not land")
	}
	for k, n := range done {
		if n < 10 {
			t.Fatalf("loop %d completed only %d operations", k, n)
		}
	}
	if sends == 0 || topo.Clients[0].NIC().Counters().Retransmits == 0 {
		t.Fatalf("%d SENDs delivered, %d retransmits: the rig does not exercise loss recovery",
			sends, topo.Clients[0].NIC().Counters().Retransmits)
	}
	return topo
}
