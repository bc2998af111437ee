package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// TestExhaustContentionOracle pins the contention ≡ exhaustion-at-capacity-∞
// property: the zero-exhaustion corner of the sweep (cell 0: 1 QP, 1 MR, no
// pause abuse, unconstrained profile) must reproduce the tenants READ/4 KB
// cell float-for-float. Everything the exhaust rig adds — the finite
// context cache behind the legacy QPC lookups, the CQ overrun path, server
// snapshots, the victim-side flight recorder, the new defense features —
// must be invisible when no resource is actually exhausted.
func TestExhaustContentionOracle(t *testing.T) {
	er, err := Exhaust(nic.CX5, 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Tenants(nic.CX5, 3, []int{4096}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, tn := er.Cells[0], tr.Cells[0]
	if e.Regime != "contention" || tn.Op != "READ" || tn.AggSize != 4096 {
		t.Fatalf("cell selection wrong: exhaust %q, tenants %s/%d", e.Regime, tn.Op, tn.AggSize)
	}
	if e.AggGbps != tn.AggGbps {
		t.Fatalf("AggGbps %v != tenants %v", e.AggGbps, tn.AggGbps)
	}
	if e.SoloGbps != tn.SoloGbps {
		t.Fatalf("SoloGbps %v != tenants %v", e.SoloGbps, tn.SoloGbps)
	}
	if e.MaxScore != tn.MaxScore || e.Detected != tn.Detected {
		t.Fatalf("HARMONIC (%v, %d) != tenants (%v, %d)", e.MaxScore, e.Detected, tn.MaxScore, tn.Detected)
	}
	if e.SwitchPFC != tn.SwitchPFC {
		t.Fatalf("SwitchPFC %d != tenants %d", e.SwitchPFC, tn.SwitchPFC)
	}
	if len(e.VictimGbps) != len(tn.VictimGbps) {
		t.Fatalf("victim counts differ: %d vs %d", len(e.VictimGbps), len(tn.VictimGbps))
	}
	for i := range e.VictimGbps {
		if e.VictimGbps[i] != tn.VictimGbps[i] {
			t.Fatalf("victim %d: %v != tenants %v", i, e.VictimGbps[i], tn.VictimGbps[i])
		}
	}
}

// TestExhaustDistinguishability is the headline acceptance property: the
// exhaustion-marker score separates resource exhaustion from plain
// contention. The contention cell must leave every finite-resource marker
// at zero (ExhScore 0), while the context-thrashing and pause-abuse cells
// push ExhScore past the HARMONIC threshold — even though the per-victim
// volume-counter detector fires for all of them alike.
func TestExhaustDistinguishability(t *testing.T) {
	r, err := Exhaust(nic.CX5, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 4 // defense.Harmonic default
	byRegime := map[string][]ExhaustCell{}
	for _, c := range r.Cells {
		byRegime[c.Regime] = append(byRegime[c.Regime], c)
	}

	for _, c := range byRegime["contention"] {
		if c.CtxMisses != 0 || c.CtxEvictions != 0 || c.CQOverruns != 0 || c.RxPauses != 0 {
			t.Fatalf("contention cell has nonzero exhaustion markers: %+v", c)
		}
		if c.ExhScore != 0 {
			t.Fatalf("contention ExhScore = %v, want 0", c.ExhScore)
		}
		// ... while looking every bit like an attack to the volume detector.
		if c.Detected == 0 {
			t.Fatal("contention cell did not trip the per-victim HARMONIC")
		}
	}

	// The over-capacity QP sweep cell: context thrash with evictions, and a
	// marker score far past threshold.
	var qp64 ExhaustCell
	for _, c := range byRegime["qp-ctx"] {
		if c.QPs == 64 {
			qp64 = c
		}
	}
	if qp64.QPs != 64 {
		t.Fatal("qp-ctx 64 cell missing from sweep")
	}
	if qp64.CtxEvictions == 0 || qp64.CtxMisses == 0 {
		t.Fatalf("qp-ctx 64: no context thrash (misses=%d evictions=%d)", qp64.CtxMisses, qp64.CtxEvictions)
	}
	if qp64.ExhScore <= threshold {
		t.Fatalf("qp-ctx 64 ExhScore = %v, want > %d", qp64.ExhScore, threshold)
	}

	// The over-capacity MR sweep cell overruns the aggressor's CQs too.
	var mr64 ExhaustCell
	for _, c := range byRegime["mr-ctx"] {
		if c.MRs == 64 {
			mr64 = c
		}
	}
	if mr64.MRs != 64 {
		t.Fatal("mr-ctx 64 cell missing from sweep")
	}
	if mr64.CQOverruns == 0 {
		t.Fatal("mr-ctx 64: aggressor CQs never overran")
	}
	if mr64.ExhScore <= threshold {
		t.Fatalf("mr-ctx 64 ExhScore = %v, want > %d", mr64.ExhScore, threshold)
	}

	// Pause abuse is flagged by the switch-side pause-frame counter alone.
	for _, c := range byRegime["pause"] {
		if c.RxPauses == 0 {
			t.Fatalf("pause duty=%d%%: switch saw no pause frames", c.Duty)
		}
		if c.ExhScore <= threshold {
			t.Fatalf("pause duty=%d%% ExhScore = %v, want > %d", c.Duty, c.ExhScore, threshold)
		}
		// The stall must actually bite the victims.
		if c.SoloPct() >= 50 {
			t.Fatalf("pause duty=%d%%: victims kept %.1f%% of solo bandwidth", c.Duty, c.SoloPct())
		}
	}

	// Victim latency inflation is visible in the flight recorder's WQE
	// latency histogram in every attacked cell.
	for _, c := range r.Cells {
		if c.WqeP99x <= 1 {
			t.Fatalf("%s cell: victim WQE p99 did not inflate (%.2fx)", c.Regime, c.WqeP99x)
		}
	}
}

func TestExhaustDefaults(t *testing.T) {
	r, err := Exhaust(nic.CX4, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Victims != 3 || len(r.Cells) != len(exhaustSweep) {
		t.Fatalf("victims=%d cells=%d", r.Victims, len(r.Cells))
	}
	for _, c := range r.Cells {
		if len(c.VictimGbps) != 3 {
			t.Fatalf("cell %s has %d victim rates", c.Regime, len(c.VictimGbps))
		}
	}
}
