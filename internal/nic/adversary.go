package nic

import (
	"slices"
	"sync/atomic"

	"github.com/thu-has/ragnar/internal/fabric"
)

// Adversarial glue between the fabric's injection surface and the NIC wire
// format. The fabric carries *envelope payloads that only this package can
// build or open, so an on-path attacker (fabric.Adversary) needs these
// helpers to read departing frames and to craft frames a victim NIC will
// accept. Everything here allocates fresh — forged envelopes never come
// from a NIC's free list, and messages read out of an envelope get their
// own copy of the payload, because the NICs reuse envelope buffers once the
// packet is delivered.

// forgedLaunches draws launch ids for frames no requester launched. NIC
// launch ids carry the NIC's sequence number in their high bits, which is
// never 0, so the two ranges never meet.
var forgedLaunches atomic.Uint64

func forgedLaunch() uint64 { return forgedLaunches.Add(1) }

// SnoopPacket opens a fabric packet observed on a link and returns a copy of
// the nic-level message it carries — what a machine-in-the-middle learns from
// one captured frame: QPNs, PSN, Seq, opcode, rkey. Data is a copy too, so
// it stays as captured after the NICs reuse the envelope.
func SnoopPacket(p fabric.Packet) (Message, bool) {
	env, ok := p.Payload.(*envelope)
	if !ok {
		return Message{}, false
	}
	m := env.msg
	m.Data = slices.Clone(m.Data)
	return m, true
}

// ForgePacket wraps a forged message as a wire packet deliverable to dst —
// the frame an adversary hands to fabric.Link.Inject. Wire size and flow
// label are derived exactly as the legitimate transmit path derives them, so
// a forged frame is indistinguishable on the wire from a genuine one. Each
// call is a launch of its own: the responder never takes the frame for a
// retransmission of a request it holds a credit for.
func ForgePacket(dst *NIC, m Message) fabric.Packet {
	m.launch = forgedLaunch()
	env := &envelope{dst: dst, msg: m}
	return fabric.Packet{
		TC:      m.TC & (fabric.NumTCs - 1),
		Bytes:   dst.wireBytes(&m),
		Dst:     dst.addr,
		Flow:    flowLabel(m.SrcQPN, m.DstQPN),
		Payload: env,
	}
}

// ReplayPacket re-wraps an observed packet as a fresh injectable copy (same
// destination NIC, deep-copied envelope and payload). Injecting the
// observed packet verbatim would deliver one envelope twice and corrupt the
// destination's free list; replay attacks must go through this copy.
func ReplayPacket(p fabric.Packet) (fabric.Packet, bool) {
	env, ok := p.Payload.(*envelope)
	if !ok || env.dst == nil {
		return fabric.Packet{}, false
	}
	m := env.msg
	m.Data = slices.Clone(m.Data)
	return ForgePacket(env.dst, m), true
}
