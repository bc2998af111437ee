package defense

import (
	"maps"
	"sort"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// wantFeatures is the HARMONIC vector of pinnedWindow, key for key.
var wantFeatures = map[string]float64{
	"tx_bytes": 1001, "rx_bytes": 1002,
	"tc/1": 11, "tc/2": 12, "tc/3": 13, "tc/4": 14, "tc/5": 15, "tc/6": 16, "tc/7": 17,
	"pfc/0": 21, "pfc/2": 22, "pfc/3": 23, "pfc/4": 24, "pfc/5": 25, "pfc/6": 26, "pfc/7": 27,
	"wiredrop/0": 31, "wiredrop/1": 32, "wiredrop/3": 33, "wiredrop/4": 34,
	"wiredrop/5": 35, "wiredrop/6": 36, "wiredrop/7": 37,
	"retx": 101, "rtx_timeout": 102, "nak_seq": 103, "rx_corrupt": 106,
	"bad_qp": 107, "invalid_nak": 108, "invalid_ack": 109, "bad_psn": 110,
	"ctx_miss": 112, "ctx_evict": 113, "cq_overrun": 115,
	"enc_ops": 116, "enc_bytes": 117,
	"wait_wqes": 118, "enable_wqes": 119, "wait_wakes": 120, "self_modifies": 121,
	"op/WRITE": 41, "op/READ": 42, "op/SEND": 43, "op/ATOMIC_FAA": 44,
	"op/ATOMIC_CAS": 45, "op/WAIT": 46, "op/ENABLE": 47,
	"mr/0": 61, "mr/7": 62, "mr/4294967295": 63,
	"qp_max": 53, "qp_total": 51 + 52 + 53,
}

// pinnedWindow sets every counter nonzero and distinct, except one zero
// slot in each per-TC array (the nonzero gating must drop it). Counters
// HARMONIC ignores (TxMsgs, TxBytesTC, Responses, NAKs, DupReqs, DupAcks,
// RetryExc, CtxHits, MTTMisses) are set too, so a feature that starts
// reading one of them changes the vector.
func pinnedWindow() Snapshot {
	return Snapshot{At: 5, Counters: nic.Counters{
		TxMsgs:      map[nic.Opcode]uint64{nic.OpWrite: 1, nic.OpRead: 2},
		TxBytes:     1001,
		RxBytes:     1002,
		TxBytesTC:   [8]uint64{3, 4, 5, 6, 7, 8, 9, 0},
		RxBytesTC:   [8]uint64{0, 11, 12, 13, 14, 15, 16, 17},
		PFCPauses:   [8]uint64{21, 0, 22, 23, 24, 25, 26, 27},
		WireDropsTC: [8]uint64{31, 32, 0, 33, 34, 35, 36, 37},
		RxMsgs: map[nic.Opcode]uint64{
			nic.OpWrite: 41, nic.OpRead: 42, nic.OpSend: 43, nic.OpAtomicFAA: 44,
			nic.OpAtomicCAS: 45, nic.OpWait: 46, nic.OpEnable: 47,
		},
		PerQPMsgs:    map[uint32]uint64{1: 51, 2: 52, 70000: 53},
		PerMRBytes:   map[uint32]uint64{0: 61, 7: 62, 4294967295: 63},
		Responses:    71,
		NAKs:         72,
		DupReqs:      73,
		Retransmits:  101,
		Timeouts:     102,
		SeqNaks:      103,
		DupAcks:      104,
		RetryExc:     105,
		RxCorrupt:    106,
		RxBadQP:      107,
		InvalidNaks:  108,
		InvalidAcks:  109,
		RxBadPSN:     110,
		CtxHits:      111,
		CtxMisses:    112,
		CtxEvictions: 113,
		MTTMisses:    114,
		CQOverruns:   115,
		EncOps:       116,
		EncBytes:     117,
		WaitWQEs:     118,
		EnableWQEs:   119,
		WaitWakes:    120,
		SelfModifies: 121,
	}}
}

func checkFeatures(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if maps.Equal(got, want) {
		return
	}
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var diff []string
	for k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if gok != wok || g != w {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	for _, k := range diff {
		t.Errorf("feature %q: got %v (present %v), want %v (present %v)", k, got[k], hasKey(got, k), want[k], hasKey(want, k))
	}
}

func hasKey(m map[string]float64, k string) bool { _, ok := m[k]; return ok }

// TestFeaturesPinned fixes the HARMONIC feature vector: which counters feed
// it, under which keys, with which nonzero gating.
func TestFeaturesPinned(t *testing.T) {
	checkFeatures(t, features(pinnedWindow()), wantFeatures)
}

// TestFeaturesZeroWindow: an idle window keeps only the two volume keys.
func TestFeaturesZeroWindow(t *testing.T) {
	checkFeatures(t, features(Snapshot{}), map[string]float64{"tx_bytes": 0, "rx_bytes": 0})
}
