// Package bitstream provides the bit-level plumbing shared by every Ragnar
// covert channel: converting between byte payloads and bit slices, framing
// with synchronisation preambles, computing bit-error rates and the paper's
// effective-bandwidth metric, and simple majority-vote repetition coding.
package bitstream

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Bits is an ordered sequence of binary symbols, MSB-first when converted
// from bytes.
type Bits []byte

// ParseBits converts a string like "1101" into Bits, ignoring spaces and
// underscores. Any other rune is an error.
func ParseBits(s string) (Bits, error) {
	out := make(Bits, 0, len(s))
	for _, r := range s {
		switch r {
		case '0':
			out = append(out, 0)
		case '1':
			out = append(out, 1)
		case ' ', '_':
		default:
			return nil, fmt.Errorf("bitstream: invalid bit rune %q", r)
		}
	}
	return out, nil
}

// MustParseBits is ParseBits for constant inputs; it panics on error.
func MustParseBits(s string) Bits {
	b, err := ParseBits(s)
	if err != nil {
		panic(err)
	}
	return b
}

// String renders the bits as a compact 0/1 string.
func (b Bits) String() string {
	var sb strings.Builder
	sb.Grow(len(b))
	for _, v := range b {
		if v == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// FromBytes expands a byte payload into bits, MSB first.
func FromBytes(data []byte) Bits {
	out := make(Bits, 0, len(data)*8)
	for _, by := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, (by>>uint(i))&1)
		}
	}
	return out
}

// ToBytes packs bits (MSB first) into bytes. Trailing bits that do not fill
// a byte are zero-padded on the right.
func (b Bits) ToBytes() []byte {
	out := make([]byte, (len(b)+7)/8)
	for i, v := range b {
		if v != 0 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// ErrorRate returns the fraction of positions where sent and received
// disagree. Length asymmetry counts as errors in both directions: a missing
// tail (recv shorter) and spurious extra symbols (recv longer) are each
// wholly wrong, scored against the longer of the two streams — a decoder
// that hallucinates symbols must not outscore an honest one.
func ErrorRate(sent, recv Bits) float64 {
	total := len(sent)
	if len(recv) > total {
		total = len(recv)
	}
	if total == 0 {
		return 0
	}
	n := min(len(sent), len(recv))
	errs := total - n // lost or spurious tail
	for i := 0; i < n; i++ {
		if sent[i] != recv[i] {
			errs++
		}
	}
	return float64(errs) / float64(total)
}

// EffectiveBandwidth converts a raw channel bandwidth (bits/s) and a bit
// error rate into the paper's effective bandwidth: the Shannon capacity of a
// binary symmetric channel with crossover probability e,
// BW_eff = BW * (1 - H2(e)). This reproduces Table V's relation between raw
// and effective rates (e.g. 84.3 Kbps at 7.59 % error -> ~51.6 Kbps).
func EffectiveBandwidth(rawBps, errorRate float64) float64 {
	return rawBps * (1 - BinaryEntropy(errorRate))
}

// BinaryEntropy returns H2(p) in bits; 0 at p = 0 or 1.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Repeat applies an n-fold repetition code to bits.
func Repeat(b Bits, n int) Bits {
	if n < 1 {
		panic("bitstream: repetition factor must be >= 1")
	}
	out := make(Bits, 0, len(b)*n)
	for _, v := range b {
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

// MajorityDecode inverts an n-fold repetition code by majority vote. Ties
// (even n with split votes) decode to 1: in the ULI channels the "1" symbol
// is the contended state, which a noisy tie most resembles.
func MajorityDecode(b Bits, n int) (Bits, error) {
	if n < 1 {
		return nil, errors.New("bitstream: repetition factor must be >= 1")
	}
	if len(b)%n != 0 {
		return nil, fmt.Errorf("bitstream: length %d not a multiple of %d", len(b), n)
	}
	out := make(Bits, 0, len(b)/n)
	for i := 0; i < len(b); i += n {
		ones := 0
		for j := 0; j < n; j++ {
			if b[i+j] != 0 {
				ones++
			}
		}
		if ones*2 >= n {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out, nil
}

// Preamble is the alternating synchronisation header prepended by Frame.
var Preamble = MustParseBits("10101011")

// Frame prepends the preamble and a 16-bit big-endian length field to the
// payload bits, which lets a receiver that samples a continuous symbol
// stream lock onto the message boundary.
func Frame(payload Bits) Bits {
	out := make(Bits, 0, len(Preamble)+16+len(payload))
	out = append(out, Preamble...)
	n := len(payload)
	for i := 15; i >= 0; i-- {
		out = append(out, byte((n>>uint(i))&1))
	}
	return append(out, payload...)
}

// Deframe locates the preamble in a received stream and extracts the
// payload. It tolerates leading garbage but requires an intact preamble and
// length field.
func Deframe(stream Bits) (Bits, error) {
	start := -1
search:
	for i := 0; i+len(Preamble) <= len(stream); i++ {
		for j, p := range Preamble {
			if stream[i+j] != p {
				continue search
			}
		}
		start = i
		break
	}
	if start < 0 {
		return nil, errors.New("bitstream: preamble not found")
	}
	pos := start + len(Preamble)
	if pos+16 > len(stream) {
		return nil, errors.New("bitstream: truncated length field")
	}
	n := 0
	for i := 0; i < 16; i++ {
		n = n<<1 | int(stream[pos+i])
	}
	pos += 16
	if pos+n > len(stream) {
		return nil, fmt.Errorf("bitstream: payload truncated: need %d bits, have %d", n, len(stream)-pos)
	}
	return append(Bits(nil), stream[pos:pos+n]...), nil
}

// RandomBits produces n pseudo-random bits from a 64-bit xorshift state;
// it is deliberately self-contained so channel tests do not need math/rand.
func RandomBits(seed uint64, n int) Bits {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	out := make(Bits, n)
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x & 1)
	}
	return out
}
