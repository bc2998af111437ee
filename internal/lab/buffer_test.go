package lab_test

import (
	"bytes"
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

// TestBufferReusableAfterCQE pins the verbs buffer contract: a WRITE's or
// SEND's buffer belongs to the caller again once its CQE is out, even while
// retransmitted copies of the message are still on the wire. The QP's retry
// timeout is below the round trip, so every message is sent several times
// and its first ACK completes it while later copies are in flight; each CQE
// overwrites the one buffer and posts the next message from it. The
// responder must see every message as posted, and stale copies must change
// nothing.
func TestBufferReusableAfterCQE(t *testing.T) {
	const size, msgs = 6 << 10, 40
	stamp := func(buf []byte, i int) {
		for k := range buf {
			buf[k] = byte(i*31 + k)
		}
	}
	for _, op := range []nic.Opcode{nic.OpWrite, nic.OpSend} {
		t.Run(op.String(), func(t *testing.T) {
			cfg := lab.DefaultConfig(nic.CX5)
			cfg.Seed = 1
			cfg.Clients = 1
			topo := lab.Pair(cfg)
			mr, err := topo.RegisterServerMR(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := topo.Dial(0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.QP.SetRetry(500*sim.Nanosecond, 1000); err != nil {
				t.Fatal(err)
			}
			buf, want := make([]byte, size), make([]byte, size)
			var got [][]byte
			conn.ServerQP().OnRecv = func(ev nic.RecvEvent) {
				if ev.Op == nic.OpSend {
					got = append(got, bytes.Clone(ev.Data))
				}
			}
			posted, completed := 0, 0
			post := func() {
				stamp(buf, posted)
				var err error
				if op == nic.OpWrite {
					err = conn.QP.PostWrite(uint64(posted), buf, mr.Describe(0), size)
				} else {
					err = conn.QP.PostSend(uint64(posted), buf)
				}
				if err != nil {
					t.Fatal(err)
				}
				posted++
			}
			conn.CQ.Notify = func(c nic.Completion) {
				if c.Status != nic.StatusOK {
					t.Fatalf("message %d completed %v", c.WRID, c.Status)
				}
				completed++
				if posted < msgs {
					post()
				}
			}
			post()
			topo.Run()
			if completed != msgs {
				t.Fatalf("%d of %d messages completed", completed, msgs)
			}
			if retx := topo.Clients[0].NIC().Counters().Retransmits; retx < msgs {
				t.Fatalf("%d retransmissions for %d messages: the rig does not retransmit every message", retx, msgs)
			}
			if op == nic.OpWrite {
				stamp(want, msgs-1)
				if !bytes.Equal(mr.Bytes()[:size], want) {
					t.Fatal("the MR does not hold the last WRITE posted")
				}
				return
			}
			if len(got) != msgs {
				t.Fatalf("%d SENDs delivered, want %d", len(got), msgs)
			}
			for i, g := range got {
				stamp(want, i)
				if !bytes.Equal(g, want) {
					t.Fatalf("SEND %d delivered bytes other than those posted", i)
				}
			}
		})
	}
}
