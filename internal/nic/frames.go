package nic

import (
	"bytes"
	"fmt"

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
	ends   []int // end offset of each segment in buf, while encoding
	frames [][]byte
}

// reset empties the buffer for reuse, keeping its capacity.
func (f *frameBuf) reset() {
	f.buf, f.ends, f.frames = f.buf[:0], f.ends[:0], f.frames[:0]
}

// encode replaces f's contents with the full RoCEv2 transport encoding of a
// message, segmenting payloads larger than the MTU into FIRST/MIDDLE/LAST
// packets exactly as the RC transport does (PSNs increment per segment).
func (f *frameBuf) encode(m *Message, mtu int) error {
	f.reset()
	payloadCarrier := !m.IsResp && (m.Op == OpWrite || m.Op == OpSend) ||
		m.IsResp && m.Op == OpRead
	if !payloadCarrier || len(m.Data) <= mtu {
		if err := f.appendFrame(m); err != nil {
			return err
		}
		f.slice()
		return nil
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

	psn := m.PSN & 0xffffff
	for off := 0; off < len(m.Data); off += mtu {
		end := off + mtu
		if end > len(m.Data) {
			end = len(m.Data)
		}
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
	f.slice()
	return nil
}

// append encodes one packet onto buf and records where it ends.
func (f *frameBuf) append(p *wire.Packet) error {
	var err error
	if f.buf, err = p.AppendTo(f.buf); err != nil {
		return err
	}
	f.ends = append(f.ends, len(f.buf))
	return nil
}

// slice cuts buf into frames once every segment is encoded; buf may have
// moved while it grew, so the slices are taken only now.
func (f *frameBuf) slice() {
	start := 0
	for _, end := range f.ends {
		f.frames = append(f.frames, f.buf[start:end:end])
		start = end
	}
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
	if !m.IsResp && (m.Op == OpWrite || m.Op == OpSend) || m.IsResp && m.Op == OpRead {
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
}

// verify parses the encoded segments and checks them against the message
// the simulator routed alongside them — a datapath self-check that the
// simulated traffic and its wire encoding never diverge. Every segment's
// ICRC is checked by the parse; each payload is compared in place against
// its stretch of the message's data.
func (c *frameCheck) verify(raws [][]byte, m *Message) error {
	if len(raws) == 0 {
		return fmt.Errorf("nic: message carried no frames")
	}
	p := &c.pkt
	total, diff := 0, -1
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
		// The length check below outranks a content mismatch, so the first
		// differing byte is only recorded here.
		if seg := p.Payload; diff < 0 && !bytes.HasPrefix(m.Data[min(total, len(m.Data)):], seg) {
			for j, b := range seg {
				if k := total + j; k >= len(m.Data) || b != m.Data[k] {
					diff = k
					break
				}
			}
		}
		total += len(p.Payload)
	}
	if total != len(m.Data) {
		return fmt.Errorf("nic: frames carry %d payload bytes, message %d", total, len(m.Data))
	}
	if diff >= 0 {
		return fmt.Errorf("nic: reassembled payload differs at byte %d", diff)
	}
	return nil
}
