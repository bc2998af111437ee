package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/nic"
)

// The grid's two headline claims, asserted numerically rather than pinned as
// bytes: the constant-time TPU reduces the intra-MR (KF4) channel to a coin
// flip, and the ISO partition's defensive win is not bought with victim
// goodput — the 2-tenant victim keeps most of its CX5 rate.
func TestDefGridDistinguishability(t *testing.T) {
	if testing.Short() {
		t.Skip("full defense grid in -short mode")
	}
	r, err := DefGrid(nic.CX5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(r.Rows))
	}
	base, iso, ct := r.Rows[0], r.Rows[1], r.Rows[2]

	// Attack side: the undefended intra-MR channel decodes nearly cleanly;
	// under the constant-time TPU the decoder is guessing (50% +/- sampling
	// noise over defgridIntraBits symbols).
	if base.IntraErr > 0.15 {
		t.Errorf("CX5 intra-MR error %.1f%%, want a working channel (<= 15%%)", base.IntraErr*100)
	}
	if ct.IntraErr < 0.35 || ct.IntraErr > 0.65 {
		t.Errorf("const-TPU intra-MR error %.1f%%, want chance-level (35-65%%)", ct.IntraErr*100)
	}
	// ISO alone must not close KF4 (it partitions schedulers, not the TPU),
	// and it must close the priority channel that CX5 leaves wide open.
	if iso.IntraErr > 0.15 {
		t.Errorf("CX5-ISO intra-MR error %.1f%%, partitioning should not affect the TPU carrier", iso.IntraErr*100)
	}
	if base.PriorityErr > 0.10 {
		t.Errorf("CX5 priority error %.1f%%, want a working channel", base.PriorityErr*100)
	}
	if iso.PriorityErr < 0.25 {
		t.Errorf("CX5-ISO priority error %.1f%%, partition should break the channel (>= 25%%)", iso.PriorityErr*100)
	}

	// Cost side: the documented bound — the CX5-ISO victim keeps at least
	// 85% of its CX5 goodput under the same 2-tenant WRITE aggressor, and
	// the const-TPU solo tax stays under 2x.
	if base.VictimGbps <= 0 {
		t.Fatal("CX5 victim goodput is zero; rig broken")
	}
	if ratio := iso.VictimGbps / base.VictimGbps; ratio < 0.85 {
		t.Errorf("CX5-ISO victim keeps only %.0f%% of CX5 goodput, documented bound is 85%%", ratio*100)
	}
	if iso.SoloGbps <= 0 || ct.SoloGbps/iso.SoloGbps > 2 {
		t.Errorf("const-TPU solo goodput %.2f vs ISO %.2f, tax bound is 2x", ct.SoloGbps, iso.SoloGbps)
	}
}

// One golden experiment per channel family on CX5: a paper profile (ISO
// and ConstTPU false, so the strict arbiter and the empirical TPU) must
// reproduce the byte streams these channels produced before the profile
// could select isolation or a constant-time TPU. Drift here means a change
// moved a legacy schedule.
func TestDefaultStrategiesByteIdentical(t *testing.T) {
	checkGolden(t, "seam_cx5", func(workers int) string {
		var b []byte
		// Priority (Grain-I/II): fluid schedules through the arbitrated
		// egress seam.
		prio := covert.NewPriorityChannel(nic.CX5).Transmit(Fig9Bits, 5)
		b = append(b, []byte("priority "+prio.Decoded.String()+"\n")...)
		// Inter-MR (Grain-III): discrete rig through SubmitMeta and the
		// strict arbiter.
		inter, err := covert.NewInterMRChannel(nic.CX5, 5)
		if err != nil {
			t.Fatal(err)
		}
		interRun, err := inter.Transmit(bitstream.RandomBits(5|1, 24))
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, []byte("inter-MR "+interRun.Decoded.String()+"\n")...)
		// Intra-MR (Grain-IV): the empirical TPU strategy's offset carrier.
		intra, err := covert.NewIntraMRChannel(nic.CX5, 5)
		if err != nil {
			t.Fatal(err)
		}
		intraRun, err := intra.Transmit(bitstream.RandomBits(5|1, 40))
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, []byte("intra-MR "+intraRun.Decoded.String()+"\n")...)
		return string(b)
	})
}
