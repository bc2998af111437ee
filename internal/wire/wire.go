// Package wire implements the RoCEv2 on-wire format the simulated fabric
// carries: Ethernet/IPv4/UDP encapsulation, the InfiniBand Base Transport
// Header (BTH) and its extended headers (RETH for RDMA, AETH for
// acknowledgements, AtomicETH/AtomicAckETH for atomics), plus the invariant
// CRC. The NIC model accounts for packets at this byte-level granularity
// (its header-size constants are asserted against this package), and the
// codec round-trips every message type the simulator exchanges — so traffic
// could be exported to or validated against real packet captures.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// IBA opcodes for the RC transport (InfiniBand Architecture Specification,
// Table 38, subset the simulator uses).
const (
	OpSendFirst        = 0x00
	OpSendMiddle       = 0x01
	OpSendLast         = 0x02
	OpSendOnly         = 0x04
	OpWriteFirst       = 0x06
	OpWriteMiddle      = 0x07
	OpWriteLast        = 0x08
	OpWriteOnly        = 0x0A
	OpReadRequest      = 0x0C
	OpReadRespFirst    = 0x0D
	OpReadRespMiddle   = 0x0E
	OpReadRespLast     = 0x0F
	OpReadResponseOnly = 0x10
	OpAcknowledge      = 0x11
	OpAtomicAck        = 0x12
	OpCompareSwap      = 0x13
	OpFetchAdd         = 0x14
)

// Fixed encapsulation sizes (bytes).
const (
	EthHeaderBytes  = 14
	IPv4HeaderBytes = 20
	UDPHeaderBytes  = 8
	BTHBytes        = 12
	RETHBytes       = 16
	AETHBytes       = 4
	AtomicETHBytes  = 28
	AtomicAckBytes  = 8
	ICRCBytes       = 4
	FCSBytes        = 4
	// PreambleIPG accounts for the Ethernet preamble, SFD and inter-packet
	// gap that occupy the wire but are not frame bytes (7+1+12).
	PreambleIPG = 20
	// RoCEv2UDPPort is the IANA-assigned destination port.
	RoCEv2UDPPort = 4791
)

// BTH is the Base Transport Header.
type BTH struct {
	Opcode   byte
	SolEvent bool
	PadCount byte // 0..3
	PKey     uint16
	DestQP   uint32 // 24 bits
	AckReq   bool
	PSN      uint32 // 24 bits
}

// RETH is the RDMA Extended Transport Header (reads and writes).
type RETH struct {
	VA     uint64
	RKey   uint32
	DMALen uint32
}

// AETH is the ACK Extended Transport Header.
type AETH struct {
	Syndrome byte
	MSN      uint32 // 24 bits
}

// AtomicETH carries atomic operands.
type AtomicETH struct {
	VA      uint64
	RKey    uint32
	SwapAdd uint64
	Compare uint64
}

// Packet is one RoCEv2 packet above the UDP layer.
type Packet struct {
	BTH       BTH
	Reth      *RETH
	Aeth      *AETH
	Atomic    *AtomicETH
	AtomicAck uint64 // original value; valid when BTH.Opcode == OpAtomicAck
	Payload   []byte
}

// extLen returns the extended-header length the opcode requires.
func extLen(opcode byte) (int, error) {
	switch opcode {
	case OpSendOnly, OpSendFirst, OpSendMiddle, OpSendLast,
		OpWriteMiddle, OpWriteLast, OpReadRespMiddle:
		return 0, nil
	case OpWriteOnly, OpWriteFirst, OpReadRequest:
		return RETHBytes, nil
	case OpReadResponseOnly, OpReadRespFirst, OpReadRespLast, OpAcknowledge:
		return AETHBytes, nil
	case OpAtomicAck:
		return AETHBytes + AtomicAckBytes, nil
	case OpCompareSwap, OpFetchAdd:
		return AtomicETHBytes, nil
	}
	return 0, fmt.Errorf("wire: unsupported opcode %#x", opcode)
}

// TransportBytes returns the size of BTH + extended headers + payload +
// ICRC for a packet of the given opcode and payload length.
func TransportBytes(opcode byte, payloadLen int) (int, error) {
	ext, err := extLen(opcode)
	if err != nil {
		return 0, err
	}
	pad := (4 - payloadLen%4) % 4
	return BTHBytes + ext + payloadLen + pad + ICRCBytes, nil
}

// FrameBytes returns the full on-wire cost of one packet: Ethernet + IPv4 +
// UDP + transport + FCS, plus preamble/IPG wire occupancy.
func FrameBytes(opcode byte, payloadLen int) (int, error) {
	t, err := TransportBytes(opcode, payloadLen)
	if err != nil {
		return 0, err
	}
	return EthHeaderBytes + IPv4HeaderBytes + UDPHeaderBytes + t + FCSBytes + PreambleIPG, nil
}

// Marshal encodes the packet (BTH and above; the encapsulation is sizing-
// only in the simulator). The payload is padded to a 4-byte boundary and an
// invariant CRC (CRC-32C over the transport bytes) is appended, as RoCEv2
// requires. It is AppendTo into a new buffer of exactly the packet's size.
func (p *Packet) Marshal() ([]byte, error) {
	size, err := TransportBytes(p.BTH.Opcode, len(p.Payload))
	if err != nil {
		return nil, err
	}
	out, err := p.AppendTo(make([]byte, 0, size))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendTo appends the packet's encoding, exactly the bytes Marshal returns,
// to dst and returns the extended slice. It grows dst at most once and
// allocates nothing when dst has room, so a caller that reuses its buffer
// encodes without allocating. On error dst is returned unchanged.
func (p *Packet) AppendTo(dst []byte) ([]byte, error) {
	ext, err := extLen(p.BTH.Opcode)
	if err != nil {
		return dst, err
	}
	switch p.BTH.Opcode {
	case OpWriteOnly, OpWriteFirst, OpReadRequest:
		if p.Reth == nil {
			return dst, errors.New("wire: opcode requires RETH")
		}
	case OpReadResponseOnly, OpReadRespFirst, OpReadRespLast, OpAcknowledge, OpAtomicAck:
		if p.Aeth == nil {
			return dst, errors.New("wire: opcode requires AETH")
		}
	case OpCompareSwap, OpFetchAdd:
		if p.Atomic == nil {
			return dst, errors.New("wire: opcode requires AtomicETH")
		}
	}
	pad := (4 - len(p.Payload)%4) % 4
	start := len(dst)
	dst = slices.Grow(dst, BTHBytes+ext+len(p.Payload)+pad+ICRCBytes)

	// BTH. The header records the actual pad (not p.BTH.PadCount) so Parse
	// can strip it.
	flags := byte(pad) << 4
	if p.BTH.SolEvent {
		flags |= 0x80
	}
	dst = append(dst, p.BTH.Opcode, flags)
	dst = binary.BigEndian.AppendUint16(dst, p.BTH.PKey)
	dst = append(dst, 0)
	dst = append24(dst, p.BTH.DestQP)
	ack := byte(0)
	if p.BTH.AckReq {
		ack = 0x80
	}
	dst = append(dst, ack)
	dst = append24(dst, p.BTH.PSN)

	switch p.BTH.Opcode {
	case OpWriteOnly, OpWriteFirst, OpReadRequest:
		dst = binary.BigEndian.AppendUint64(dst, p.Reth.VA)
		dst = binary.BigEndian.AppendUint32(dst, p.Reth.RKey)
		dst = binary.BigEndian.AppendUint32(dst, p.Reth.DMALen)
	case OpReadResponseOnly, OpReadRespFirst, OpReadRespLast, OpAcknowledge, OpAtomicAck:
		dst = append(dst, p.Aeth.Syndrome)
		dst = append24(dst, p.Aeth.MSN)
		if p.BTH.Opcode == OpAtomicAck {
			dst = binary.BigEndian.AppendUint64(dst, p.AtomicAck)
		}
	case OpCompareSwap, OpFetchAdd:
		dst = binary.BigEndian.AppendUint64(dst, p.Atomic.VA)
		dst = binary.BigEndian.AppendUint32(dst, p.Atomic.RKey)
		dst = binary.BigEndian.AppendUint64(dst, p.Atomic.SwapAdd)
		dst = binary.BigEndian.AppendUint64(dst, p.Atomic.Compare)
	}

	dst = append(dst, p.Payload...)
	for i := 0; i < pad; i++ {
		dst = append(dst, 0)
	}
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.BigEndian.AppendUint32(dst, crc), nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Headers is caller-owned storage for a parsed packet's extended headers.
// ParseInto points the Packet's Reth, Aeth and Atomic fields into it instead
// of allocating them.
type Headers struct {
	Reth   RETH
	Aeth   AETH
	Atomic AtomicETH
}

// Parse decodes a transport-level packet produced by Marshal, verifying the
// invariant CRC. The returned packet owns its payload: it is a copy, so raw
// may be reused afterwards.
func Parse(raw []byte) (*Packet, error) {
	p, h := new(Packet), new(Headers)
	if err := ParseInto(raw, p, h); err != nil {
		return nil, err
	}
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return p, nil
}

// ParseInto decodes raw into p exactly as Parse does, with the same checks,
// but allocates nothing: the extended headers live in h and p.Payload aliases
// raw. p and h are overwritten; both stay valid only while raw and h are
// left unchanged.
func ParseInto(raw []byte, p *Packet, h *Headers) error {
	*p = Packet{}
	if len(raw) < BTHBytes+ICRCBytes {
		return errors.New("wire: packet shorter than BTH+ICRC")
	}
	body := raw[:len(raw)-ICRCBytes]
	wantCRC := binary.BigEndian.Uint32(raw[len(raw)-ICRCBytes:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return errors.New("wire: ICRC mismatch")
	}

	p.BTH.Opcode = body[0]
	p.BTH.SolEvent = body[1]&0x80 != 0
	pad := int(body[1] >> 4 & 3)
	p.BTH.PadCount = byte(pad)
	p.BTH.PKey = binary.BigEndian.Uint16(body[2:])
	p.BTH.DestQP = get24(body[5:])
	p.BTH.AckReq = body[8]&0x80 != 0
	p.BTH.PSN = get24(body[9:])

	ext, err := extLen(p.BTH.Opcode)
	if err != nil {
		return err
	}
	if len(body) < BTHBytes+ext+pad {
		return errors.New("wire: truncated extended header")
	}
	rest := body[BTHBytes:]
	switch p.BTH.Opcode {
	case OpWriteOnly, OpWriteFirst, OpReadRequest:
		h.Reth = RETH{
			VA:     binary.BigEndian.Uint64(rest[0:]),
			RKey:   binary.BigEndian.Uint32(rest[8:]),
			DMALen: binary.BigEndian.Uint32(rest[12:]),
		}
		p.Reth = &h.Reth
	case OpReadResponseOnly, OpReadRespFirst, OpReadRespLast, OpAcknowledge, OpAtomicAck:
		h.Aeth = AETH{Syndrome: rest[0], MSN: get24(rest[1:])}
		p.Aeth = &h.Aeth
		if p.BTH.Opcode == OpAtomicAck {
			p.AtomicAck = binary.BigEndian.Uint64(rest[AETHBytes:])
		}
	case OpCompareSwap, OpFetchAdd:
		h.Atomic = AtomicETH{
			VA:      binary.BigEndian.Uint64(rest[0:]),
			RKey:    binary.BigEndian.Uint32(rest[8:]),
			SwapAdd: binary.BigEndian.Uint64(rest[12:]),
			Compare: binary.BigEndian.Uint64(rest[20:]),
		}
		p.Atomic = &h.Atomic
	}
	if payload := rest[ext : len(rest)-pad]; len(payload) > 0 {
		p.Payload = payload
	}
	return nil
}

func append24(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>16), byte(v>>8), byte(v))
}

func get24(src []byte) uint32 {
	return uint32(src[0])<<16 | uint32(src[1])<<8 | uint32(src[2])
}
