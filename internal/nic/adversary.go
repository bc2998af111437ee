package nic

import "github.com/thu-has/ragnar/internal/fabric"

// Adversarial glue between the fabric's injection surface and the NIC wire
// format. The fabric carries *envelope payloads that only this package can
// build or open, so an on-path attacker (fabric.Adversary) needs these
// helpers to read departing frames and to craft frames a victim NIC will
// accept. Everything here allocates fresh — forged envelopes never come
// from a NIC's free list, and messages read out of an envelope get their
// own copy of the payload, taken from its frames, because the NICs reuse
// envelope buffers once the packet is delivered.

// SnoopPacket opens a fabric packet observed on a link and returns the
// nic-level message it carries — what a machine-in-the-middle learns from
// one captured frame: the message a receiving NIC decodes from its frames
// (see frameReader.decode), with Data a copy of their payload, so it stays
// as captured after the NICs reuse the envelope, and SrcQPN and TC taken
// from the encapsulation around them, the UDP source port and the DSCP.
func SnoopPacket(p fabric.Packet) (Message, bool) {
	env, ok := p.Payload.(*envelope)
	if !ok {
		return Message{}, false
	}
	return env.observed(), true
}

// observed decodes the envelope's frames as SnoopPacket describes, with
// the frame reader of the NIC the packet is bound for, so it allocates only
// the payload copy. That reader is free: a link observes a packet in an
// event of its own, never inside a Deliver.
func (env *envelope) observed() Message {
	r := &env.dst.rx
	var m Message
	if err := r.decode(env.frames, &m); err != nil {
		panic("nic: undecodable frames in flight: " + err.Error())
	}
	if len(r.segs) > 0 {
		m.Data = gather(nil, r.segs)
	}
	m.SrcQPN, m.TC = env.srcQPN, env.tc
	return m
}

// ForgePacket wraps a forged message as a wire packet deliverable to dst —
// the frame an adversary hands to fabric.Link.Inject. Its frames are encoded
// at dst's MTU, and its wire size and flow label derived, exactly as the
// legitimate transmit path does, so a forged frame is indistinguishable on
// the wire from a genuine one: a copy of a request names the same QP and
// PSN as the request. m.Data is encoded only for a WRITE or SEND request or
// a READ response. dst gets what the frames carry and the packet's TC;
// m.SrcQPN only sets the flow label and the UDP source port, since a
// responder answers the peer in the context of the QP a request names.
func ForgePacket(dst *NIC, m Message) fabric.Packet {
	env := &envelope{dst: dst, srcQPN: m.SrcQPN, psn: m.PSN, tc: m.TC & (fabric.NumTCs - 1)}
	env.fire = env.granted
	if err := env.encode(&m, MTU); err != nil {
		panic("nic: forged frame encode: " + err.Error())
	}
	return fabric.Packet{
		TC:      env.tc,
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
