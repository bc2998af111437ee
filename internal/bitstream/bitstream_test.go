package bitstream

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestParseBits(t *testing.T) {
	b, err := ParseBits("1101 1111_0101 0010")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != "1101111101010010" {
		t.Fatalf("parsed = %s", b)
	}
	if _, err := ParseBits("10x1"); err == nil {
		t.Fatal("invalid rune should error")
	}
}

func TestMustParseBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseBits should panic on bad input")
		}
	}()
	MustParseBits("12")
}

func TestBytesRoundTrip(t *testing.T) {
	data := []byte("RAGNAR covert payload")
	b := FromBytes(data)
	if len(b) != len(data)*8 {
		t.Fatalf("bit length = %d", len(b))
	}
	back := b.ToBytes()
	if !bytes.Equal(back, data) {
		t.Fatalf("round trip = %q", back)
	}
}

func TestToBytesPadding(t *testing.T) {
	b := MustParseBits("101")
	if got := b.ToBytes(); len(got) != 1 || got[0] != 0xA0 {
		t.Fatalf("padded = %x", got)
	}
}

func TestErrorRate(t *testing.T) {
	cases := []struct {
		name       string
		sent, recv string
		want       float64
	}{
		{"identical", "1111", "1111", 0},
		{"half wrong", "1111", "1010", 0.5},
		{"all wrong", "1111", "0000", 1},
		{"both empty", "", "", 0},
		// Length asymmetry, short side: a lost tail is wholly wrong.
		{"recv truncated", "1111", "11", 0.5},
		{"recv empty", "1111", "", 1},
		// Length asymmetry, long side: a decoder that hallucinates extra
		// symbols is scored against its own longer stream, so the spurious
		// tail counts as errors too (it must not outscore an honest decoder).
		{"recv overlong", "11", "1111", 0.5},
		{"sent empty", "", "1111", 1},
		{"overlong with overlap errors", "10", "0011", 0.75},
		{"truncated with overlap errors", "0011", "10", 0.75},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if e := ErrorRate(MustParseBits(c.sent), MustParseBits(c.recv)); e != c.want {
				t.Fatalf("ErrorRate(%q, %q) = %v, want %v", c.sent, c.recv, e, c.want)
			}
		})
	}
}

// TestErrorRateLengthSymmetry pins the fix for the overlength bias: scoring
// must be symmetric in which stream is longer.
func TestErrorRateLengthSymmetry(t *testing.T) {
	long := MustParseBits("10110010")
	short := MustParseBits("1011")
	if a, b := ErrorRate(long, short), ErrorRate(short, long); a != b {
		t.Fatalf("asymmetric scoring: long,short=%v short,long=%v", a, b)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if h := BinaryEntropy(0.5); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H2(0.5) = %v", h)
	}
	if BinaryEntropy(0) != 0 || BinaryEntropy(1) != 0 {
		t.Fatal("H2 at extremes should be 0")
	}
}

func TestEffectiveBandwidthMatchesTableV(t *testing.T) {
	// Paper Table V, CX-6 inter-MR: 84.3 Kbps at 7.59% error -> 51.6 Kbps.
	eff := EffectiveBandwidth(84300, 0.0759)
	if eff < 49000 || eff > 54000 {
		t.Fatalf("effective bandwidth = %v, want ~51.6 Kbps", eff)
	}
	// CX-5 inter-MR: 63.6 Kbps at 3.98% -> ~48.3 Kbps.
	eff = EffectiveBandwidth(63600, 0.0398)
	if eff < 46000 || eff > 51000 {
		t.Fatalf("effective bandwidth = %v, want ~48.3 Kbps", eff)
	}
}

func TestFrameDeframe(t *testing.T) {
	payload := MustParseBits("110111110101001011")
	framed := Frame(payload)
	// Prepend garbage the receiver must skip.
	stream := append(MustParseBits("0011"), framed...)
	got, err := Deframe(stream)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != payload.String() {
		t.Fatalf("deframed = %s", got)
	}
}

func TestDeframeErrors(t *testing.T) {
	if _, err := Deframe(MustParseBits("0000000000000000")); err == nil {
		t.Fatal("missing preamble should error")
	}
	framed := Frame(MustParseBits("1111"))
	if _, err := Deframe(framed[:len(framed)-2]); err == nil {
		t.Fatal("truncated payload should error")
	}
	if _, err := Deframe(framed[:len(Preamble)+3]); err == nil {
		t.Fatal("truncated length field should error")
	}
}

func TestRandomBitsDeterministic(t *testing.T) {
	a := RandomBits(9, 128)
	b := RandomBits(9, 128)
	if a.String() != b.String() {
		t.Fatal("RandomBits not deterministic")
	}
	ones := 0
	for _, v := range a {
		ones += int(v)
	}
	if ones < 32 || ones > 96 {
		t.Fatalf("RandomBits badly skewed: %d/128 ones", ones)
	}
	// seed 0 must not get stuck at zero state
	z := RandomBits(0, 16)
	if z.String() == "0000000000000000" {
		t.Fatal("zero seed produced all zeros")
	}
}

// Property: framing round-trips any payload.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		payload := RandomBits(seed, int(n%512))
		got, err := Deframe(Frame(payload))
		if err != nil {
			return false
		}
		return got.String() == payload.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: byte/bit conversion round-trips.
func TestBytesRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(FromBytes(data).ToBytes(), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ErrorRate is 0 iff streams match, and always within [0,1].
func TestErrorRateRangeProperty(t *testing.T) {
	f := func(seed uint64, n uint8, flips uint8) bool {
		sent := RandomBits(seed, int(n)+1)
		recv := append(Bits(nil), sent...)
		k := int(flips) % len(recv)
		for i := 0; i < k; i++ {
			recv[i] ^= 1
		}
		e := ErrorRate(sent, recv)
		if e < 0 || e > 1 {
			return false
		}
		return (e == 0) == (k == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
