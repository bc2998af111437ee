package wire

import (
	"bytes"
	"testing"
)

// FuzzParse hardens the packet parser against arbitrary input: it must
// never panic, and any input it accepts must re-marshal to an equivalent
// packet (parse/marshal round-trip stability). ParseInto must agree with
// Parse on every input: same acceptance, same fields, and a payload that
// aliases raw instead of copying it.
func FuzzParse(f *testing.F) {
	// Seed with valid packets of every opcode family.
	seeds := []*Packet{
		{BTH: BTH{Opcode: OpSendOnly}, Payload: []byte("seed payload")},
		{BTH: BTH{Opcode: OpReadRequest, DestQP: 3, PSN: 9}, Reth: &RETH{VA: 4096, RKey: 7, DMALen: 64}},
		{BTH: BTH{Opcode: OpAcknowledge}, Aeth: &AETH{Syndrome: 0x62, MSN: 5}},
		{BTH: BTH{Opcode: OpCompareSwap}, Atomic: &AtomicETH{VA: 8, RKey: 1, SwapAdd: 2, Compare: 3}},
		{BTH: BTH{Opcode: OpAtomicAck}, Aeth: &AETH{}, AtomicAck: 42},
	}
	for _, p := range seeds {
		raw, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Parse(raw)
		var into Packet
		var hdrs Headers
		intoErr := ParseInto(raw, &into, &hdrs)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("Parse error %v, ParseInto error %v", err, intoErr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if into.BTH != p.BTH || into.AtomicAck != p.AtomicAck || !bytes.Equal(into.Payload, p.Payload) ||
			!sameHeader(into.Reth, p.Reth) || !sameHeader(into.Aeth, p.Aeth) || !sameHeader(into.Atomic, p.Atomic) {
			t.Fatalf("ParseInto %+v, Parse %+v", into, *p)
		}
		if len(into.Payload) > 0 && &into.Payload[0] != &raw[len(raw)-ICRCBytes-int(into.BTH.PadCount)-len(into.Payload)] {
			t.Fatal("ParseInto payload does not alias raw")
		}
		again, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet failed to re-marshal: %v", err)
		}
		p2, err := Parse(again)
		if err != nil {
			t.Fatalf("re-marshalled packet rejected: %v", err)
		}
		if p2.BTH != p.BTH || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("round-trip instability: %+v vs %+v", p, p2)
		}
	})
}

// FuzzDecapsulate hardens the encapsulation stripper.
func FuzzDecapsulate(f *testing.F) {
	p := &Packet{BTH: BTH{Opcode: OpSendOnly}, Payload: []byte("x")}
	transport, _ := p.Marshal()
	f.Add(Encapsulate(transport, [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 50000))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		got, ok := DecapsulateUDP(frame)
		if ok && len(got) > len(frame) {
			t.Fatal("decapsulated more bytes than the frame holds")
		}
	})
}

// sameHeader reports whether two optional extended headers are both absent
// or both present and equal.
func sameHeader[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}
