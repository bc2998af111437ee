package nic

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// carried returns what a receiver decodes from m's frames: the fields the
// frames carry, and zero for the rest. A SEND or a READ response is as long
// as its payload and an atomic 8 bytes; a READ or a WRITE request names its
// length in its RETH. The answer both atomics share decodes as a FAA's, an
// Acknowledge names no verb, and a retry-exhausted status, which no NIC
// sends, reads back as the invalid-request class it is encoded as.
func carried(m *Message) Message {
	w := Message{IsResp: m.IsResp, DstQPN: m.DstQPN & 0xffffff, PSN: m.PSN & psnMask}
	var payload []byte
	switch {
	case !m.IsResp && m.Op == OpSend:
		w.Op, payload = OpSend, m.Data
	case !m.IsResp && m.Op == OpWrite:
		w.Op, w.RKey, w.RemoteAddr, w.Length, payload = OpWrite, m.RKey, m.RemoteAddr, int(uint32(m.Length)), m.Data
	case !m.IsResp && m.Op == OpRead:
		w.Op, w.RKey, w.RemoteAddr, w.Length = OpRead, m.RKey, m.RemoteAddr, int(uint32(m.Length))
	case !m.IsResp && m.Op == OpAtomicCAS:
		w.Op, w.RKey, w.RemoteAddr, w.Length, w.CompareAdd, w.Swap = OpAtomicCAS, m.RKey, m.RemoteAddr, 8, m.CompareAdd, m.Swap
	case !m.IsResp && m.Op == OpAtomicFAA:
		w.Op, w.RKey, w.RemoteAddr, w.Length, w.CompareAdd = OpAtomicFAA, m.RKey, m.RemoteAddr, 8, m.CompareAdd
	case m.Op == OpRead:
		w.Op, payload = OpRead, m.Data
	case m.Op == OpAtomicFAA || m.Op == OpAtomicCAS:
		w.Op, w.CompareAdd = OpAtomicFAA, m.CompareAdd
	default:
		w.Op = opNone
	}
	if m.IsResp {
		w.Status, w.AckPSN = m.Status, m.AckPSN&psnMask
		if w.Status == StatusRetryExcErr {
			w.Status = StatusBadQP
		}
	}
	if w.Op == OpSend || w.IsResp && w.Op == OpRead {
		w.Length = len(payload)
	}
	if len(payload) > 0 {
		w.Data = payload
	}
	return w
}

// checkRoundTrip encodes m at the MTU, decodes the frames and fails t
// unless the decoded message is carried(m) and encodes to the same frames.
func checkRoundTrip(t *testing.T, m *Message, mtu int) {
	t.Helper()
	var fb, again frameBuf
	if err := fb.encode(m, mtu); err != nil {
		t.Fatal(err)
	}
	var r frameReader
	var got Message
	if err := r.decode(fb.frames, &got); err != nil {
		t.Fatalf("%v (response %v) with %d payload bytes: %v", m.Op, m.IsResp, len(m.Data), err)
	}
	if len(r.segs) > 0 {
		got.Data = gather(nil, r.segs)
	}
	want := carried(m)
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("decoded %d payload bytes, want %d, and they differ", len(got.Data), len(want.Data))
	}
	data := got.Data
	got.Data, want.Data = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
	got.Data = data
	if err := again.encode(&got, mtu); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.frames, fb.frames) {
		t.Fatalf("%v (response %v) re-encodes to other frames", got.Op, got.IsResp)
	}
}

// TestFrameRoundTrip decodes the frames of every kind of message a NIC
// sends, with every status and with payloads from empty to four MTUs and a
// byte, PSNs that wrap inside a segmented message and a QPN wider than the
// 24 bits a BTH holds.
func TestFrameRoundTrip(t *testing.T) {
	const mtu = 4096
	kinds := []struct {
		op   Opcode
		resp bool
	}{
		{OpSend, false}, {OpWrite, false}, {OpRead, false}, {OpAtomicCAS, false}, {OpAtomicFAA, false},
		{OpRead, true}, {OpAtomicCAS, true}, {OpWrite, true},
	}
	statuses := []Status{StatusOK, StatusRemoteAccessError, StatusBadQP, StatusSeqNak, StatusRetryExcErr}
	sizes := []int{0, 1, mtu - 1, mtu, mtu + 1, 4*mtu + 1}
	data := make([]byte, 4*mtu+1)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	for _, k := range kinds {
		for _, st := range statuses {
			for _, size := range sizes {
				m := &Message{Op: k.op, IsResp: k.resp, Status: st,
					SrcQPN: 7, DstQPN: 0x1abcdef, RKey: 0x77, RemoteAddr: 0xdead_beef_00,
					Length: size, Data: data[:size], PSN: psnMask - 1, AckPSN: psnMask,
					CompareAdd: 0x1111, Swap: 0x2222, TC: 5}
				t.Run(fmt.Sprintf("%v/resp=%v/%v/%dB", k.op, k.resp, st, size), func(t *testing.T) {
					checkRoundTrip(t, m, mtu)
				})
			}
		}
	}
}

// FuzzFrameRoundTrip is TestFrameRoundTrip over fuzzer-chosen fields,
// payload lengths up to five MTUs and MTUs of 256 B, 1 KiB and 4 KiB.
func FuzzFrameRoundTrip(f *testing.F) {
	// A SEND segmented at 256 B: its FIRST opcode is 0x00.
	f.Add(uint8(0), uint8(0), uint8(0), uint32(2), uint32(psnMask), uint32(0), uint32(9), uint64(0x1000), int64(600), uint64(0), uint64(0), uint16(600))
	f.Add(uint8(1), uint8(0), uint8(1), uint32(0xffffffff), uint32(5), uint32(0), uint32(9), uint64(0x2000), int64(1<<40), uint64(0), uint64(0), uint16(0))
	f.Add(uint8(5), uint8(3), uint8(2), uint32(3), uint32(7), uint32(7), uint32(0), uint64(0), int64(0), uint64(0), uint64(0), uint16(9000))
	f.Add(uint8(6), uint8(0), uint8(2), uint32(3), uint32(8), uint32(8), uint32(0), uint64(0), int64(0), uint64(42), uint64(0), uint16(0))
	f.Add(uint8(3), uint8(0), uint8(2), uint32(4), uint32(9), uint32(0), uint32(5), uint64(0x3000), int64(8), uint64(1), uint64(2), uint16(0))
	f.Fuzz(func(t *testing.T, kind, status, mtuSel uint8, dstQPN, psn, ackPSN, rkey uint32,
		addr uint64, length int64, cmp, swap uint64, size uint16) {
		ops := []Opcode{OpSend, OpWrite, OpRead, OpAtomicCAS, OpAtomicFAA, OpRead, OpAtomicCAS, OpWrite}
		mtu := []int{256, 1024, 4096}[int(mtuSel)%3]
		data := make([]byte, int(size)%(5*mtu+1))
		for i := range data {
			data[i] = byte(i ^ int(size))
		}
		m := &Message{Op: ops[int(kind)%len(ops)], IsResp: int(kind)%len(ops) >= 5,
			Status: Status(int(status) % 5), DstQPN: dstQPN, RKey: rkey, RemoteAddr: addr,
			Length: int(length), Data: data, PSN: psn, AckPSN: ackPSN, CompareAdd: cmp, Swap: swap}
		checkRoundTrip(t, m, mtu)
	})
}
