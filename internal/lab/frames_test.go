package lab_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
	"github.com/thu-has/ragnar/internal/wire"
)

// TestFrameDigestPinned pins every frame both NICs of two lossy rigs put on
// the wire: its departure time in picoseconds and its bytes. The completion
// digests see only CQEs, so a change to how messages are encoded, numbered
// or addressed that leaves every completion where it was shows here alone.
// Original transmissions, retransmissions and responses all count, dropped
// frames included, since a NIC taps a frame as it departs.
func TestFrameDigestPinned(t *testing.T) {
	rigs := []struct {
		name   string
		run    func(t *testing.T, tap func(*lab.Topology)) *lab.Topology
		frames int
		want   uint64
	}{
		{"pair-lossy-payload", digestPayloads, 661, 0xd5c0ed97bbfa9c2b},
		{"pair-verbs-lossy", digestVerbs, 1288, 0x66e628a93c270ec9},
	}
	for _, r := range rigs {
		t.Run(r.name, func(t *testing.T) {
			d := &frameDigest{h: fnv.New64a()}
			r.run(t, func(topo *lab.Topology) {
				d.watch(t, 0, topo.Server.NIC())
				d.watch(t, 1, topo.Clients[0].NIC())
			})
			if got := d.h.Sum64(); d.frames != r.frames || got != r.want {
				t.Errorf("%d frames, digest %#016x; want %d, %#016x", d.frames, got, r.frames, r.want)
			}
		})
	}
}

// TestWholeFramesRepeat builds the same rig twice in one process: both taps
// hash the same whole frames, Ethernet and IP headers included, because a
// NIC's addresses come from its place in the rig, not from how many NICs
// the process built before.
func TestWholeFramesRepeat(t *testing.T) {
	run := func() uint64 {
		h := fnv.New64a()
		digestPayloads(t, func(topo *lab.Topology) {
			for _, n := range []*nic.NIC{topo.Server.NIC(), topo.Clients[0].NIC()} {
				n.Tap = func(_ sim.Time, frame []byte) { h.Write(frame) }
			}
		})
		return h.Sum64()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("whole-frame digests %#016x then %#016x: the frames depend on what the process built before", a, b)
	}
}

// frameDigest hashes the frames the NICs it watches put on the wire, in
// departure order: which NIC sent each, when, its UDP source port and its
// RoCEv2 transport bytes (BTH to ICRC). The Ethernet and IP headers are
// left out; TestWholeFramesRepeat checks that they repeat.
type frameDigest struct {
	h      hash.Hash64
	frames int
}

func (d *frameDigest) watch(t *testing.T, side byte, n *nic.NIC) {
	n.Tap = func(at sim.Time, frame []byte) {
		raw, ok := wire.DecapsulateUDP(frame)
		if !ok {
			t.Fatal("tapped a frame that is not RoCEv2")
		}
		var hdr [11]byte
		hdr[0] = side
		binary.BigEndian.PutUint64(hdr[1:], uint64(at))
		copy(hdr[9:], frame[wire.EthHeaderBytes+wire.IPv4HeaderBytes:])
		d.h.Write(hdr[:])
		d.h.Write(raw)
		d.frames++
	}
}

// digestVerbs puts every kind of frame a NIC sends on a CX-5 Pair with
// 0.5 % loss on both links and a 20 µs retry timeout. Each of 20 rounds
// posts, on one QP, a WRITE with data, a WRITE without data, a SEND and a
// READ of each of 0, 8, 64, 4096, 4097 and 9000 B, then a FAA, a CAS and a
// READ at an rkey the server never registered, and runs until all of them
// complete.
func digestVerbs(t *testing.T, tap func(*lab.Topology)) *lab.Topology {
	const rounds, maxSize = 20, 9000
	sizes := []int{0, 8, 64, 4096, 4097, maxSize}
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Seed = 1
	cfg.Clients = 1
	topo := lab.Pair(cfg)
	tap(topo)
	mr, err := topo.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := topo.Dial(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, qp := range []*verbs.QP{conn.QP, conn.ServerQP()} {
		if err := qp.SetRetry(20*sim.Microsecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rounds*len(sizes); i++ {
		if err := conn.ServerQP().PostRecv(make([]byte, maxSize)); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, maxSize)
	for i := range payload {
		payload[i] = byte(i*31) ^ 0x5a
	}
	copy(mr.Bytes()[64<<10:], payload)
	rbuf := make([]byte, maxSize)
	badKey := verbs.RemoteBuf{RKey: mr.RKey() + 1000, Addr: mr.Addr(0)}
	var comps []nic.Completion
	conn.CQ.Notify = func(c nic.Completion) { comps = append(comps, c) }
	topo.InjectLoss(sim.DeriveSeed(1, 1<<32), 0.005)
	wrid := uint64(0)
	post := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		wrid++
	}
	for r := 0; r < rounds; r++ {
		for _, n := range sizes {
			post(conn.QP.PostWrite(wrid, payload[:n], mr.Describe(0), n))
			post(conn.QP.PostWrite(wrid, nil, mr.Describe(16<<10), n))
			post(conn.QP.PostSend(wrid, payload[:n]))
			post(conn.QP.PostRead(wrid, rbuf, mr.Describe(64<<10), n))
		}
		post(conn.QP.PostAtomicFAA(wrid, mr.Describe(32<<10), 3))
		post(conn.QP.PostAtomicCAS(wrid, mr.Describe(32<<10+8), 0, 7))
		post(conn.QP.PostRead(wrid, rbuf, badKey, 64))
		topo.Run()
	}
	perRound := 4*len(sizes) + 3
	if len(comps) != rounds*perRound {
		t.Fatalf("%d completions, want %d", len(comps), rounds*perRound)
	}
	for _, c := range comps {
		want := nic.StatusOK
		if c.WRID%uint64(perRound) == uint64(perRound-1) {
			want = nic.StatusRemoteAccessError
		}
		if c.Status != want {
			t.Fatalf("WRID %d (%v) completed %v, want %v", c.WRID, c.Op, c.Status, want)
		}
	}
	if string(rbuf) != string(payload) {
		t.Fatal("READ landed wrong bytes")
	}
	drops := func(n *nic.NIC) (sum uint64) {
		for _, d := range n.Counters().WireDropsTC {
			sum += d
		}
		return sum
	}
	if cl, sv := topo.Clients[0].NIC(), topo.Server.NIC(); cl.Counters().Retransmits == 0 || drops(cl) == 0 || drops(sv) == 0 {
		t.Fatalf("%d retransmits, %d requests and %d responses dropped: the rig does not exercise loss recovery",
			cl.Counters().Retransmits, drops(cl), drops(sv))
	}
	return topo
}
