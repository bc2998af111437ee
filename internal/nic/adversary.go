package nic

import (
	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/wire"
)

// Adversarial glue between the fabric's injection surface and the NIC wire
// format. The fabric carries *envelope payloads that only this package can
// build or open, so an on-path attacker (fabric.Adversary) needs these
// helpers to read departing frames and to craft frames a victim NIC will
// accept. Everything here allocates fresh — forged envelopes never come
// from a NIC's free list, and messages read out of an envelope get their
// own copy of the payload, taken from its frames, because the NICs reuse
// envelope buffers once the packet is delivered.

// SnoopPacket opens a fabric packet observed on a link and returns a copy of
// the nic-level message it carries — what a machine-in-the-middle learns from
// one captured frame: QPNs, PSN, opcode, rkey. Data is a copy of the
// payload the frames carry, the bytes an on-path observer sees, so it stays
// as captured after the NICs reuse the envelope.
func SnoopPacket(p fabric.Packet) (Message, bool) {
	env, ok := p.Payload.(*envelope)
	if !ok {
		return Message{}, false
	}
	return env.observed(), true
}

// observed returns a copy of the envelope's message whose Data is a copy of
// the payload its frames carry.
func (env *envelope) observed() Message {
	m := env.msg
	if m.Data == nil {
		return m
	}
	var pkt wire.Packet
	var hdrs wire.Headers
	data := make([]byte, 0, len(m.Data))
	for _, f := range env.frames {
		if err := wire.ParseInto(f, &pkt, &hdrs); err != nil {
			panic("nic: unparsable frame in flight: " + err.Error())
		}
		data = append(data, pkt.Payload...)
	}
	m.Data = data
	return m
}

// ForgePacket wraps a forged message as a wire packet deliverable to dst —
// the frame an adversary hands to fabric.Link.Inject. Its frames are encoded
// at dst's MTU, and its wire size and flow label derived, exactly as the
// legitimate transmit path does, so a forged frame is indistinguishable on
// the wire from a genuine one: a copy of a request names the same QP and
// PSN as the request. m.Data is nil unless the frames carry a payload (a
// WRITE or SEND request, a READ response).
func ForgePacket(dst *NIC, m Message) fabric.Packet {
	env := &envelope{dst: dst, msg: m}
	env.fire = env.granted
	if err := env.encode(&m, dst.prof.MTU); err != nil {
		panic("nic: forged frame encode: " + err.Error())
	}
	return fabric.Packet{
		TC:      m.TC & (fabric.NumTCs - 1),
		Bytes:   dst.wireBytes(&m),
		Dst:     dst.addr,
		Flow:    flowLabel(m.SrcQPN, m.DstQPN),
		Payload: env,
	}
}

// ReplayPacket re-wraps an observed packet as a fresh injectable copy (same
// destination NIC, the message with its payload copied out of the frames).
// Injecting the observed packet verbatim would deliver one envelope twice
// and corrupt the destination's free list; replay attacks must go through
// this copy.
func ReplayPacket(p fabric.Packet) (fabric.Packet, bool) {
	env, ok := p.Payload.(*envelope)
	if !ok || env.dst == nil {
		return fabric.Packet{}, false
	}
	return ForgePacket(env.dst, env.observed()), true
}
