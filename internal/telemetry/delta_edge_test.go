package telemetry

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
)

// TestDeltaEdgeCases table-drives Delta over the awkward inputs: counters
// that wrapped uint64 between snapshots (unsigned subtraction must still
// yield the true increment), keys that appear only in the newer snapshot,
// and zero-width windows.
func TestDeltaEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		prev, cur Snapshot
		check     func(t *testing.T, d Snapshot)
	}{
		{
			name: "counter wrap yields modular increment",
			prev: Snapshot{Counters: nic.Counters{TxBytes: ^uint64(0) - 5, RxBytes: ^uint64(0),
				Retransmits: ^uint64(0) - 1}},
			cur: Snapshot{Counters: nic.Counters{TxBytes: 10, RxBytes: 3, Retransmits: 2}},
			check: func(t *testing.T, d Snapshot) {
				if d.TxBytes != 16 {
					t.Fatalf("TxBytes delta across wrap = %d, want 16", d.TxBytes)
				}
				if d.RxBytes != 4 {
					t.Fatalf("RxBytes delta across wrap = %d, want 4", d.RxBytes)
				}
				if d.Retransmits != 4 {
					t.Fatalf("Retransmits delta across wrap = %d, want 4", d.Retransmits)
				}
			},
		},
		{
			name: "per-TC wrap",
			prev: Snapshot{Counters: nic.Counters{RxBytesTC: [8]uint64{3: ^uint64(0) - 1}}},
			cur:  Snapshot{Counters: nic.Counters{RxBytesTC: [8]uint64{3: 8}}},
			check: func(t *testing.T, d Snapshot) {
				if d.RxBytesTC[3] != 10 {
					t.Fatalf("RxBytesTC[3] delta = %d, want 10", d.RxBytesTC[3])
				}
			},
		},
		{
			name: "new map keys count from zero",
			prev: Snapshot{},
			cur: Snapshot{Counters: nic.Counters{
				RxMsgs:     map[nic.Opcode]uint64{nic.OpRead: 7},
				PerQPMsgs:  map[uint32]uint64{9: 4},
				PerMRBytes: map[uint32]uint64{77: 640},
			}},
			check: func(t *testing.T, d Snapshot) {
				if d.RxMsgs[nic.OpRead] != 7 || d.PerQPMsgs[9] != 4 || d.PerMRBytes[77] != 640 {
					t.Fatalf("new-key deltas wrong: %+v", d)
				}
			},
		},
		{
			name: "identical snapshots delta to zero",
			prev: Snapshot{Counters: nic.Counters{TxBytes: 100, SeqNaks: 5, RxBytesTC: [8]uint64{1: 50}}},
			cur:  Snapshot{Counters: nic.Counters{TxBytes: 100, SeqNaks: 5, RxBytesTC: [8]uint64{1: 50}}},
			check: func(t *testing.T, d Snapshot) {
				if d.TxBytes != 0 || d.SeqNaks != 0 || d.RxBytesTC[1] != 0 {
					t.Fatalf("zero delta expected, got %+v", d)
				}
			},
		},
		{
			name: "delta keeps the newer timestamp",
			prev: Snapshot{At: 100},
			cur:  Snapshot{At: 250},
			check: func(t *testing.T, d Snapshot) {
				if d.At != 250 {
					t.Fatalf("At = %v, want 250", d.At)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.check(t, Delta(c.prev, c.cur)) })
	}
}

// TestWindowedDeltasEdgeCases: short series must not panic or invent
// windows — an empty or single-snapshot series has no deltas.
func TestWindowedDeltasEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		series []Snapshot
		want   int
	}{
		{"nil series", nil, 0},
		{"empty series", []Snapshot{}, 0},
		{"single snapshot", []Snapshot{{Counters: nic.Counters{TxBytes: 42}}}, 0},
		{"two snapshots one window", []Snapshot{{Counters: nic.Counters{TxBytes: 10}}, {Counters: nic.Counters{TxBytes: 30}}}, 1},
		{"five snapshots four windows", make([]Snapshot, 5), 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := WindowedDeltas(c.series)
			if len(got) != c.want {
				t.Fatalf("windows = %d, want %d", len(got), c.want)
			}
		})
	}
	two := WindowedDeltas([]Snapshot{{Counters: nic.Counters{TxBytes: 10}}, {Counters: nic.Counters{TxBytes: 30}}})
	if two[0].TxBytes != 20 {
		t.Fatalf("window delta = %d, want 20", two[0].TxBytes)
	}
}

// TestRateGbpsGuards pins the zero- and negative-window guard plus the unit
// conversion.
func TestRateGbpsGuards(t *testing.T) {
	cases := []struct {
		name   string
		d      Snapshot
		window int64 // picoseconds
		want   float64
	}{
		{"zero window", Snapshot{Counters: nic.Counters{RxBytes: 1 << 30}}, 0, 0},
		{"negative window", Snapshot{Counters: nic.Counters{RxBytes: 1 << 30}}, -1000, 0},
		{"one GB in one second is 8 Gbps", Snapshot{Counters: nic.Counters{RxBytes: 1e9}}, 1e12, 8},
		{"empty window is zero", Snapshot{}, 1e12, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := RateGbps(c.d, sim.Duration(c.window)); got != c.want {
				t.Fatalf("RateGbps = %v, want %v", got, c.want)
			}
		})
	}
}
