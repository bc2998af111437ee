package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// TestNvmfDistinguishability is the headline acceptance property of the
// NeVerMore suite: the abuse-marker score separates protocol abuse from
// benign wire loss, and the one attack it cannot see (ack-forge) is exactly
// the one the end-to-end data check catches instead.
func TestNvmfDistinguishability(t *testing.T) {
	r, err := Nvmf(nic.CX5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 4 // defense.Harmonic default
	cells := map[string]NvmfCell{}
	for _, c := range r.Cells {
		cells[c.Attack] = c
	}
	for _, want := range []string{"baseline", "loss", "nak-spoof", "ack-forge", "qp-guess", "sr-mismatch"} {
		if _, ok := cells[want]; !ok {
			t.Fatalf("cell %q missing from sweep", want)
		}
	}

	// Baseline: clean fabric, full service, nothing scores.
	base := cells["baseline"]
	if base.Retx != 0 || base.WireDrops != 0 || base.AbuseScore != 0 || base.DataErrs != 0 {
		t.Fatalf("baseline not clean: %+v", base)
	}

	// Benign loss: retransmits and drops surge, but every abuse marker stays
	// structurally zero — AbuseScore must be exactly 0.
	loss := cells["loss"]
	if loss.WireDrops == 0 || loss.Retx == 0 {
		t.Fatalf("loss cell saw no loss: %+v", loss)
	}
	if loss.BadQP != 0 || loss.InvNaks != 0 || loss.InvAcks != 0 || loss.BadPSN != 0 || loss.BadCaps != 0 {
		t.Fatalf("benign loss raised abuse markers: %+v", loss)
	}
	if loss.AbuseScore != 0 {
		t.Fatalf("loss AbuseScore = %v, want 0", loss.AbuseScore)
	}
	if loss.DataErrs != 0 {
		t.Fatalf("benign loss corrupted data: %+v", loss)
	}

	// NAK spoofing: a retransmit storm with ZERO wire drops — the replayed
	// stale NAKs land in InvalidNaks and push AbuseScore past threshold.
	nak := cells["nak-spoof"]
	if nak.WireDrops != 0 {
		t.Fatalf("nak-spoof cell dropped frames: %+v", nak)
	}
	if nak.Retx == 0 {
		t.Fatal("nak-spoof produced no retransmits")
	}
	if nak.InvNaks == 0 {
		t.Fatal("stale NAK replays were not counted")
	}
	if nak.AbuseScore <= threshold {
		t.Fatalf("nak-spoof AbuseScore = %v, want > %d", nak.AbuseScore, threshold)
	}

	// ACK forgery: the stealthy row. Full-visibility forgeries carry the
	// exact PSN, so no counter moves — the only trace is end-to-end corruption
	// (DataErrs) plus DupAcks when the real responses echo in.
	forge := cells["ack-forge"]
	if forge.DataErrs == 0 {
		t.Fatal("ack-forge corrupted nothing end to end")
	}
	if forge.DupAcks == 0 {
		t.Fatal("ack-forge: real responses never echoed as DupAcks")
	}
	if forge.InvAcks != 0 || forge.InvNaks != 0 {
		t.Fatalf("exact-PSN forgeries were rejected: %+v", forge)
	}
	if forge.AbuseScore != 0 {
		t.Fatalf("ack-forge AbuseScore = %v, want 0 (marker-silent by design)", forge.AbuseScore)
	}

	// QP guessing: no service impact, but every probe is charged to RxBadQP.
	guess := cells["qp-guess"]
	if guess.BadQP == 0 {
		t.Fatal("qp-guess probes were not counted")
	}
	if guess.AbuseScore <= threshold {
		t.Fatalf("qp-guess AbuseScore = %v, want > %d", guess.AbuseScore, threshold)
	}
	if guess.DataErrs != 0 {
		t.Fatalf("qp-guess corrupted data: %+v", guess)
	}

	// S/R mismatch: the malicious tenant's malformed capsules all land in the
	// target's BadCapsules validator.
	mism := cells["sr-mismatch"]
	if mism.BadCaps == 0 {
		t.Fatal("sr-mismatch capsules were not counted")
	}
	if mism.AbuseScore <= threshold {
		t.Fatalf("sr-mismatch AbuseScore = %v, want > %d", mism.AbuseScore, threshold)
	}

	// Victim service must actually degrade somewhere: the NAK storm is the
	// cell built to collapse IOPS.
	if nak.IOPSPct >= 95 {
		t.Fatalf("nak-spoof left victim at %.1f%% of baseline IOPS", nak.IOPSPct)
	}
}

// TestNvmfDeterminism: the same seed renders byte-identically regardless of
// worker count (the per-cell DeriveSeed contract).
func TestNvmfDeterminism(t *testing.T) {
	r1, err := Nvmf(nic.CX5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Nvmf(nic.CX5, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatalf("renders diverged across worker counts:\n%s\nvs\n%s", r1.Render(), r2.Render())
	}
}
