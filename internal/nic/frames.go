package nic

import (
	"errors"
	"fmt"
	"slices"

	"github.com/thu-has/ragnar/internal/wire"
)

// opNone is the verb of a decoded Acknowledge, whose frame names none.
const opNone Opcode = -1

// frameKind is a verb in one direction with the IBA opcodes of its frames:
// ops[0] of a message sent in one frame and, for a kind that carries its
// payload and so may be segmented at the MTU, ops[1:] of the FIRST, MIDDLE
// and LAST segments. Other kinds leave ops[1:] unset; zero cannot mean
// "none", since it is wire.OpSendFirst.
type frameKind struct {
	op      Opcode
	resp    bool
	payload bool
	ops     [4]byte
}

// Rows of frameKinds after the requests, which are indexed by their verb
// (the wire verbs are the Opcodes up to OpAtomicCAS).
const (
	kindReadResp = int(OpAtomicCAS) + 1 + iota
	kindAtomicAck
	kindAck
)

// frameKinds is the opcode table both directions read: encode picks a row
// by the message (kindOf), decode by the opcode of its first frame
// (kindStarting).
var frameKinds = [...]frameKind{
	OpWrite:      {OpWrite, false, true, [4]byte{wire.OpWriteOnly, wire.OpWriteFirst, wire.OpWriteMiddle, wire.OpWriteLast}},
	OpRead:       {OpRead, false, false, [4]byte{wire.OpReadRequest}},
	OpSend:       {OpSend, false, true, [4]byte{wire.OpSendOnly, wire.OpSendFirst, wire.OpSendMiddle, wire.OpSendLast}},
	OpAtomicFAA:  {OpAtomicFAA, false, false, [4]byte{wire.OpFetchAdd}},
	OpAtomicCAS:  {OpAtomicCAS, false, false, [4]byte{wire.OpCompareSwap}},
	kindReadResp: {OpRead, true, true, [4]byte{wire.OpReadResponseOnly, wire.OpReadRespFirst, wire.OpReadRespMiddle, wire.OpReadRespLast}},
	// Both atomics are answered with one opcode; it decodes as a FAA's.
	kindAtomicAck: {OpAtomicFAA, true, false, [4]byte{wire.OpAtomicAck}},
	kindAck:       {opNone, true, false, [4]byte{wire.OpAcknowledge}},
}

// kindStarting maps the opcode of a message's first frame, an ONLY or a
// FIRST, to one plus its row of frameKinds; any other opcode maps to zero.
var kindStarting = func() (t [256]uint8) {
	for i, k := range frameKinds {
		t[k.ops[0]] = uint8(i + 1)
		if k.payload {
			t[k.ops[1]] = uint8(i + 1)
		}
	}
	return t
}()

// kindOf returns the kind of m's frames. A response to any verb but a READ
// or an atomic is an Acknowledge.
func kindOf(m *Message) (*frameKind, error) {
	switch {
	case m.IsResp && m.Op == OpRead:
		return &frameKinds[kindReadResp], nil
	case m.IsResp && (m.Op == OpAtomicFAA || m.Op == OpAtomicCAS):
		return &frameKinds[kindAtomicAck], nil
	case m.IsResp:
		return &frameKinds[kindAck], nil
	case m.Op < OpWrite || m.Op > OpAtomicCAS:
		return nil, fmt.Errorf("nic: no wire opcode for %v", m.Op)
	}
	return &frameKinds[m.Op], nil
}

// segPos returns the index into frameKind.ops of frame i of a message sent
// in n frames.
func segPos(i, n int) int {
	switch {
	case n == 1:
		return 0
	case i == 0:
		return 1
	case i < n-1:
		return 2
	}
	return 3
}

// frameBuf holds one message's RoCEv2 encoding: every segment's bytes back
// to back in buf, and frames slicing buf per segment. Envelopes embed one
// and reuse both slices from message to message, so steady-state encoding
// allocates nothing.
type frameBuf struct {
	buf    []byte
	frames [][]byte
}

// reset empties the buffer for reuse, keeping its capacity.
func (f *frameBuf) reset() {
	f.buf, f.frames = f.buf[:0], f.frames[:0]
}

// encode replaces f's contents with the full RoCEv2 transport encoding of a
// message, segmenting payloads larger than the MTU into FIRST/MIDDLE/LAST
// packets exactly as the RC transport does: segment i carries PSN m.PSN+i
// and, in an AETH, MSN m.AckPSN+i. The payload is read from m.Data now,
// and buf grows at most once per message.
func (f *frameBuf) encode(m *Message, mtu int) error {
	f.reset()
	k, err := kindOf(m)
	if err != nil {
		return err
	}
	var payload []byte
	if k.payload {
		payload = m.Data
	}
	// Size buf for every segment at once (each carries at most an
	// AtomicETH besides its BTH, pad and ICRC), so it does not move between
	// segments; if it did, earlier frames would keep the old array.
	segs := max(1, (len(payload)+mtu-1)/mtu)
	f.buf = slices.Grow(f.buf, len(payload)+segs*(wire.BTHBytes+wire.AtomicETHBytes+3+wire.ICRCBytes))

	var h wire.Headers
	for i := 0; i < segs; i++ {
		p := wire.Packet{
			BTH: wire.BTH{
				Opcode: k.ops[segPos(i, segs)],
				DestQP: m.DstQPN & 0xffffff,
				PSN:    (m.PSN + uint32(i)) & 0xffffff,
				AckReq: !m.IsResp && i == segs-1,
			},
			Payload: payload[i*mtu : min((i+1)*mtu, len(payload))],
		}
		switch p.BTH.Opcode {
		case wire.OpWriteOnly, wire.OpWriteFirst, wire.OpReadRequest:
			h.Reth = wire.RETH{VA: m.RemoteAddr, RKey: m.RKey, DMALen: uint32(m.Length)}
			p.Reth = &h.Reth
		case wire.OpReadResponseOnly, wire.OpReadRespFirst, wire.OpReadRespLast, wire.OpAcknowledge, wire.OpAtomicAck:
			h.Aeth = wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: (m.AckPSN + uint32(i)) & 0xffffff}
			p.Aeth = &h.Aeth
			p.AtomicAck = m.CompareAdd
		case wire.OpCompareSwap:
			h.Atomic = wire.AtomicETH{VA: m.RemoteAddr, RKey: m.RKey, SwapAdd: m.Swap, Compare: m.CompareAdd}
			p.Atomic = &h.Atomic
		case wire.OpFetchAdd:
			h.Atomic = wire.AtomicETH{VA: m.RemoteAddr, RKey: m.RKey, SwapAdd: m.CompareAdd}
			p.Atomic = &h.Atomic
		}
		start := len(f.buf)
		if f.buf, err = p.AppendTo(f.buf); err != nil {
			return err
		}
		f.frames = append(f.frames, f.buf[start:len(f.buf):len(f.buf)])
	}
	return nil
}

// aethSyndrome encodes the completion status in the ACK syndrome field
// (0 = ACK, 0x60.. = NAK classes; remote access error maps to NAK-RAE).
func aethSyndrome(s Status) byte {
	switch s {
	case StatusOK:
		return 0x00
	case StatusSeqNak:
		return 0x60 // NAK: PSN sequence error (go-back-N rewind request)
	case StatusRemoteAccessError:
		return 0x62 // NAK: remote access error
	default:
		return 0x61 // NAK: invalid request class
	}
}

// statusOf decodes an AETH syndrome. The invalid-request class, and any
// syndrome aethSyndrome does not produce, reads as StatusBadQP.
func statusOf(syndrome byte) Status {
	for _, s := range [...]Status{StatusOK, StatusSeqNak, StatusRemoteAccessError} {
		if aethSyndrome(s) == syndrome {
			return s
		}
	}
	return StatusBadQP
}

// frameReader is the reusable parse state for decoding arriving frames.
// Each NIC keeps one, so decoding a message into it allocates nothing.
type frameReader struct {
	pkt  wire.Packet
	hdrs wire.Headers
	// segs holds each decoded segment's payload: views into the frames,
	// valid until their envelope is recycled. segArr backs it up to four
	// segments (16 KiB at a 4 KiB MTU), so a new NIC does not allocate it.
	segs   [][]byte
	segArr [4][]byte
}

// decode rebuilds in m the message the frames raws encode, the inverse of
// frameBuf.encode: the verb and direction from the opcodes, the
// destination QP and PSN from the first BTH, and the RETH, AETH or
// AtomicETH fields from the first frame. Every ICRC is checked, and so is
// each frame's opcode against its place in the message. Length is the
// RETH's DMA length for a WRITE or a READ request, 8 for an atomic, and
// for a SEND or a READ response its payload's length. The payload is not
// copied: r.segs holds each segment's non-empty payload, and m.Data stays
// nil. No frame carries SrcQPN or TC, so both stay zero.
func (r *frameReader) decode(raws [][]byte, m *Message) error {
	r.segs = r.segs[:0]
	if len(raws) == 0 {
		return errors.New("nic: message carried no frames")
	}
	p := &r.pkt
	var k *frameKind
	for i, raw := range raws {
		if err := wire.ParseInto(raw, p, &r.hdrs); err != nil {
			return err
		}
		if i == 0 {
			j := kindStarting[p.BTH.Opcode]
			if j == 0 {
				return fmt.Errorf("nic: no message starts with opcode %#x", p.BTH.Opcode)
			}
			k = &frameKinds[j-1]
			*m = Message{Op: k.op, IsResp: k.resp, DstQPN: p.BTH.DestQP, PSN: p.BTH.PSN}
			if h := p.Reth; h != nil {
				m.RemoteAddr, m.RKey, m.Length = h.VA, h.RKey, int(h.DMALen)
			}
			if h := p.Aeth; h != nil {
				m.Status, m.AckPSN, m.CompareAdd = statusOf(h.Syndrome), h.MSN, p.AtomicAck
			}
			if h := p.Atomic; h != nil {
				m.RemoteAddr, m.RKey, m.Length, m.CompareAdd = h.VA, h.RKey, 8, h.SwapAdd
				if k.op == OpAtomicCAS {
					m.CompareAdd, m.Swap = h.Compare, h.SwapAdd
				}
			}
		}
		if want := k.ops[segPos(i, len(raws))]; p.BTH.Opcode != want {
			return fmt.Errorf("nic: frame %d of %d has opcode %#x, want %#x", i, len(raws), p.BTH.Opcode, want)
		}
		if len(p.Payload) > 0 {
			r.segs = append(r.segs, p.Payload)
			if k.op != OpWrite {
				m.Length += len(p.Payload)
			}
		}
	}
	return nil
}
