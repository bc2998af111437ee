package nic

import (
	"fmt"
	"slices"

	"github.com/thu-has/ragnar/internal/wire"
)

// opcodeToWire maps the simulator's opcode/direction onto IBA opcodes.
func opcodeToWire(m *Message) (byte, error) {
	if m.IsResp {
		switch m.Op {
		case OpRead:
			return wire.OpReadResponseOnly, nil
		case OpAtomicFAA, OpAtomicCAS:
			return wire.OpAtomicAck, nil
		default:
			return wire.OpAcknowledge, nil
		}
	}
	switch m.Op {
	case OpSend:
		return wire.OpSendOnly, nil
	case OpWrite:
		return wire.OpWriteOnly, nil
	case OpRead:
		return wire.OpReadRequest, nil
	case OpAtomicCAS:
		return wire.OpCompareSwap, nil
	case OpAtomicFAA:
		return wire.OpFetchAdd, nil
	}
	return 0, fmt.Errorf("nic: no wire opcode for %v", m.Op)
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

// carriesPayload reports whether m's frames carry its Data: WRITE and SEND
// requests and READ responses.
func carriesPayload(m *Message) bool {
	return !m.IsResp && (m.Op == OpWrite || m.Op == OpSend) || m.IsResp && m.Op == OpRead
}

// encode replaces f's contents with the full RoCEv2 transport encoding of a
// message, segmenting payloads larger than the MTU into FIRST/MIDDLE/LAST
// packets exactly as the RC transport does (PSNs increment per segment).
// The payload is read from m.Data now, and buf grows at most once per
// message.
func (f *frameBuf) encode(m *Message, mtu int) error {
	f.reset()
	if !carriesPayload(m) || len(m.Data) <= mtu {
		return f.appendFrame(m) // AppendTo grows buf at most once
	}

	var firstOp, midOp, lastOp byte
	switch {
	case m.IsResp: // read response
		firstOp, midOp, lastOp = wire.OpReadRespFirst, wire.OpReadRespMiddle, wire.OpReadRespLast
	case m.Op == OpWrite:
		firstOp, midOp, lastOp = wire.OpWriteFirst, wire.OpWriteMiddle, wire.OpWriteLast
	default: // send
		firstOp, midOp, lastOp = wire.OpSendFirst, wire.OpSendMiddle, wire.OpSendLast
	}
	// Size buf for every segment at once: each carries at most a RETH
	// besides its BTH, pad and ICRC.
	segs := (len(m.Data) + mtu - 1) / mtu
	f.buf = slices.Grow(f.buf, len(m.Data)+segs*(wire.BTHBytes+wire.RETHBytes+3+wire.ICRCBytes))

	psn := m.PSN & 0xffffff
	for off := 0; off < len(m.Data); off += mtu {
		end := min(off+mtu, len(m.Data))
		p := wire.Packet{
			BTH: wire.BTH{
				DestQP: m.DstQPN & 0xffffff,
				PSN:    psn,
				AckReq: !m.IsResp && end == len(m.Data),
			},
			Payload: m.Data[off:end],
		}
		var reth wire.RETH
		var aeth wire.AETH
		switch {
		case off == 0:
			p.BTH.Opcode = firstOp
			if firstOp == wire.OpWriteFirst {
				reth = wire.RETH{VA: m.RemoteAddr, RKey: m.RKey, DMALen: uint32(m.Length)}
				p.Reth = &reth
			}
			if firstOp == wire.OpReadRespFirst {
				aeth = wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: psn}
				p.Aeth = &aeth
			}
		case end == len(m.Data):
			p.BTH.Opcode = lastOp
			if lastOp == wire.OpReadRespLast {
				aeth = wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: psn}
				p.Aeth = &aeth
			}
		default:
			p.BTH.Opcode = midOp
		}
		if err := f.append(&p); err != nil {
			return err
		}
		psn = (psn + 1) & 0xffffff
	}
	return nil
}

// append encodes one packet onto buf and slices it off as the next frame.
// encode sizes buf for the whole message, so buf does not move between
// segments; if it did, earlier frames would keep the old array, whose
// bytes the move leaves as they were.
func (f *frameBuf) append(p *wire.Packet) error {
	start := len(f.buf)
	var err error
	if f.buf, err = p.AppendTo(f.buf); err != nil {
		return err
	}
	f.frames = append(f.frames, f.buf[start:len(f.buf):len(f.buf)])
	return nil
}

// appendFrame encodes a single-packet message. The PSN carries the QP's
// 24-bit packet sequence number; an ACK's AETH MSN carries the cumulative
// acknowledgement PSN.
func (f *frameBuf) appendFrame(m *Message) error {
	op, err := opcodeToWire(m)
	if err != nil {
		return err
	}
	p := wire.Packet{
		BTH: wire.BTH{
			Opcode: op,
			DestQP: m.DstQPN & 0xffffff,
			PSN:    m.PSN & 0xffffff,
			AckReq: !m.IsResp,
		},
	}
	var reth wire.RETH
	var aeth wire.AETH
	var atomic wire.AtomicETH
	switch op {
	case wire.OpWriteOnly, wire.OpReadRequest:
		reth = wire.RETH{VA: m.RemoteAddr, RKey: m.RKey, DMALen: uint32(m.Length)}
		p.Reth = &reth
	case wire.OpReadResponseOnly, wire.OpAcknowledge:
		aeth = wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: m.AckPSN & 0xffffff}
		p.Aeth = &aeth
	case wire.OpAtomicAck:
		aeth = wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: m.AckPSN & 0xffffff}
		p.Aeth = &aeth
		p.AtomicAck = m.CompareAdd
	case wire.OpCompareSwap:
		atomic = wire.AtomicETH{VA: m.RemoteAddr, RKey: m.RKey, SwapAdd: m.Swap, Compare: m.CompareAdd}
		p.Atomic = &atomic
	case wire.OpFetchAdd:
		atomic = wire.AtomicETH{VA: m.RemoteAddr, RKey: m.RKey, SwapAdd: m.CompareAdd}
		p.Atomic = &atomic
	}
	if carriesPayload(m) {
		p.Payload = m.Data
	}
	return f.append(&p)
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

// frameCheck is the reusable parse state for verifying arriving frames.
// Each NIC keeps one, so decoding a frame into it allocates nothing.
type frameCheck struct {
	pkt  wire.Packet
	hdrs wire.Headers
	// segs holds each verified segment's payload: views into the frames,
	// valid until their envelope is recycled. segArr backs it up to four
	// segments (16 KiB at a 4 KiB MTU), so a new NIC does not allocate it.
	segs   [][]byte
	segArr [4][]byte
}

// verify parses the encoded segments and checks them against the message
// the simulator routed alongside them — a datapath self-check that the
// simulated traffic and its wire encoding never diverge: every segment's
// ICRC (checked by the parse), the opcode, the destination QP, the RETH and
// the total payload length. It records each segment's payload in c.segs;
// the frames, not m.Data, are the payload the receiver copies.
func (c *frameCheck) verify(raws [][]byte, m *Message) error {
	if len(raws) == 0 {
		return fmt.Errorf("nic: message carried no frames")
	}
	p := &c.pkt
	c.segs = c.segs[:0]
	total := 0
	for i, raw := range raws {
		if err := wire.ParseInto(raw, p, &c.hdrs); err != nil {
			return err
		}
		if p.BTH.DestQP != m.DstQPN&0xffffff {
			return fmt.Errorf("nic: frame destQP %d, message %d", p.BTH.DestQP, m.DstQPN)
		}
		if i == 0 && len(raws) == 1 {
			wantOp, err := opcodeToWire(m)
			if err != nil {
				return err
			}
			if p.BTH.Opcode != wantOp {
				return fmt.Errorf("nic: frame opcode %#x, message %v", p.BTH.Opcode, m.Op)
			}
		}
		if i == 0 && p.Reth != nil {
			if p.Reth.VA != m.RemoteAddr || p.Reth.RKey != m.RKey || p.Reth.DMALen != uint32(m.Length) {
				return fmt.Errorf("nic: RETH mismatch: %+v vs msg addr=%d rkey=%d len=%d",
					p.Reth, m.RemoteAddr, m.RKey, m.Length)
			}
		}
		if len(p.Payload) > 0 {
			c.segs = append(c.segs, p.Payload)
		}
		total += len(p.Payload)
	}
	if total != len(m.Data) {
		return fmt.Errorf("nic: frames carry %d payload bytes, message %d", total, len(m.Data))
	}
	return nil
}
