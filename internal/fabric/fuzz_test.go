package fabric

import (
	"fmt"
	"testing"

	"github.com/thu-has/ragnar/internal/sim"
)

// FuzzSwitchForward drives a randomly parameterised star of hosts behind one
// switch with a random packet schedule and checks the invariants that must
// hold on ANY input:
//
//   - no packet is ever delivered twice (forwarding cannot duplicate);
//   - packet conservation: everything injected is delivered or accounted to
//     an explicit drop counter (unroutable, shared-buffer, in-flight fault),
//     with exact byte conservation when no fault plan is installed;
//   - PFC never deadlocks: once the engine quiesces, every upstream and
//     egress queue is empty and the shared buffer reads zero — a pause that
//     never released would strand packets and fail these checks.
//
// The input bytes are consumed cyclically: the first few pick the topology
// and switch thresholds (small shared buffer and XOFF so admission drops and
// pause/resume cycles are common), the rest schedule packets.
func FuzzSwitchForward(f *testing.F) {
	f.Add([]byte{2, 0, 3, 16, 0, 1, 3, 10, 2, 1, 0, 40, 7, 3})
	f.Add([]byte{4, 1, 0, 2, 200, 3, 0, 0, 60, 1, 2, 7, 255, 9, 9, 9, 0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 2, 7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip("not enough bytes to parameterise a rig")
		}
		pos := 0
		next := func() byte { b := data[pos%len(data)]; pos++; return b }

		e := sim.NewEngine(1)
		nPorts := 2 + int(next())%3 // 2..4 hosts
		lossy := next()&1 == 1
		sw := NewSwitch(e, SwitchConfig{
			Name:           "fuzz",
			SharedBufBytes: 4096 + int(next())*64,
			XOffBytes:      512 + int(next())*16,
		})

		type portState struct {
			up        *Link
			delivered uint64
			bytes     uint64
		}
		ports := make([]*portState, nPorts)
		seen := make(map[int]bool)
		dup := -1
		for i := 0; i < nPorts; i++ {
			ps := &portState{}
			rate := 1 + float64(next()%100)
			port := sw.AddPort(fmt.Sprintf("h%d", i), rate, 50*sim.Nanosecond,
				func(p Packet) {
					ps.delivered++
					ps.bytes += uint64(p.Bytes)
					id := p.Payload.(int)
					if seen[id] {
						dup = id
					}
					seen[id] = true
				})
			ps.up = NewLink(e, fmt.Sprintf("h%d->fuzz", i), rate, 50*sim.Nanosecond, 0, sw.Ingress)
			sw.SetUpstream(port, ps.up, 0)
			sw.Route(uint32(i), port)
			ports[i] = ps
		}
		if lossy {
			for i := 0; i < nPorts; i++ {
				sw.EgressLink(i).SetFaultPlan(&FaultPlan{Seed: int64(i + 1), DropProb: float64(next()%32) / 100})
			}
		}

		// Schedule injections at strictly increasing times: src host, routed
		// or deliberately unroutable destination, TC, size and gap all come
		// from the input stream.
		nPkts := len(data) / 3
		if nPkts > 2048 {
			nPkts = 2048
		}
		var injected, injBytes uint64
		at := sim.Time(0)
		for id := 0; id < nPkts; id++ {
			src := int(next()) % nPorts
			dst := uint32(next()) % uint32(nPorts+1) // == nPorts: unroutable
			p := Packet{
				TC:      int(next()) % NumTCs,
				Bytes:   64 + int(next())*8,
				Dst:     dst,
				Payload: id,
			}
			at = at.Add(sim.Duration(1+int(next())%64) * 10 * sim.Nanosecond)
			injected++
			injBytes += uint64(p.Bytes)
			up := ports[src].up
			e.At(at, func() {
				if err := up.Send(p); err != nil {
					t.Errorf("unbounded upstream rejected %+v: %v", p, err)
				}
			})
		}
		e.Run()

		if dup >= 0 {
			t.Fatalf("packet %d delivered twice", dup)
		}
		// Quiescence must mean fully drained: PFC pauses all released, no
		// packet stranded in any queue, shared buffer empty.
		if sw.BufUsed() != 0 {
			t.Fatalf("engine quiesced with %d bytes in the shared buffer", sw.BufUsed())
		}
		for i, ps := range ports {
			for tc := 0; tc < NumTCs; tc++ {
				if n := ps.up.QueueLen(tc); n != 0 {
					t.Fatalf("host %d upstream TC %d strands %d packets (PFC deadlock?)", i, tc, n)
				}
				if n := sw.EgressLink(i).QueueLen(tc); n != 0 {
					t.Fatalf("port %d egress TC %d strands %d packets", i, tc, n)
				}
				if sw.PortBacklog(i, tc) != 0 {
					t.Fatalf("port %d TC %d backlog accounting nonzero after drain", i, tc)
				}
			}
		}
		// Packet conservation through the admission and forwarding stages.
		var bufDrops, faultDrops, delivered, deliveredBytes uint64
		for tc := 0; tc < NumTCs; tc++ {
			bufDrops += sw.BufDrops(tc)
		}
		for i, ps := range ports {
			delivered += ps.delivered
			deliveredBytes += ps.bytes
			for tc := 0; tc < NumTCs; tc++ {
				faultDrops += sw.EgressLink(i).FaultDrops(tc)
			}
		}
		if got := sw.FwdPackets() + sw.Unroutable() + bufDrops; got != injected {
			t.Fatalf("admission accounting: fwd %d + unroutable %d + bufdrop %d != injected %d",
				sw.FwdPackets(), sw.Unroutable(), bufDrops, injected)
		}
		if delivered != sw.FwdPackets()-faultDrops {
			t.Fatalf("delivered %d packets, want %d admitted - %d fault-dropped",
				delivered, sw.FwdPackets(), faultDrops)
		}
		if !lossy && deliveredBytes != sw.FwdBytes() {
			t.Fatalf("byte conservation at 0 loss: delivered %d bytes, admitted %d",
				deliveredBytes, sw.FwdBytes())
		}
	})
}
