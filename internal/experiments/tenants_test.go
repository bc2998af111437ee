package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// TestTenantsMonotoneCollapse is the acceptance property: per-victim
// bandwidth is non-increasing as the aggressor's message size grows, for
// each opcode independently.
func TestTenantsMonotoneCollapse(t *testing.T) {
	r, err := Tenants(nic.CX5, 3, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 2*len(TenantAggSizes) {
		t.Fatalf("cells = %d, want %d", len(r.Cells), 2*len(TenantAggSizes))
	}
	byOp := map[string][]TenantCell{}
	for _, c := range r.Cells {
		byOp[c.Op] = append(byOp[c.Op], c)
	}
	for op, cells := range byOp {
		prev := -1.0
		for _, c := range cells {
			mean := c.MeanVictimGbps()
			if mean <= 0 {
				t.Fatalf("%s size=%d: victims fully starved (%.3f Gbps)", op, c.AggSize, mean)
			}
			if prev >= 0 && mean > prev*1.01 {
				t.Fatalf("%s: victim bandwidth rose from %.3f to %.3f Gbps as aggressor grew to %d",
					op, prev, mean, c.AggSize)
			}
			prev = mean
			// Every cell must show real degradation versus its own solo
			// baseline, and the per-victim detectors must notice.
			if c.SoloPct() >= 90 {
				t.Fatalf("%s size=%d: no degradation (%.1f%% of solo)", op, c.AggSize, c.SoloPct())
			}
			// A heavy squeeze must trip every victim's detector; a light one
			// may legitimately stay under the HARMONIC threshold.
			if c.SoloPct() < 50 && c.Detected != len(c.VictimGbps) {
				t.Fatalf("%s size=%d: HARMONIC fired for %d/%d victims",
					op, c.AggSize, c.Detected, len(c.VictimGbps))
			}
		}
	}
}

// TestTenantsPFCRegime drives the aggressor past the switch's XOFF
// threshold: a single over-threshold packet must assert PFC pauses at the
// shared switch, and the stop-and-go throttles the aggressor itself (the
// documented self-harm regime excluded from the default monotone sweep).
func TestTenantsPFCRegime(t *testing.T) {
	r, err := Tenants(nic.CX5, 3, []int{262144}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Op != "WRITE" {
			continue
		}
		if c.SwitchPFC == 0 {
			t.Fatalf("WRITE size=%d: no switch PFC pauses recorded", c.AggSize)
		}
	}
}

func TestTenantsDefaults(t *testing.T) {
	// victims<1 clamps to 3; empty sizes select the default sweep.
	r, err := Tenants(nic.CX4, 0, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Victims != 3 || len(r.Cells) != 2*len(TenantAggSizes) {
		t.Fatalf("victims=%d cells=%d", r.Victims, len(r.Cells))
	}
	for _, c := range r.Cells {
		if len(c.VictimGbps) != 3 {
			t.Fatalf("cell %s/%d has %d victim rates", c.Op, c.AggSize, len(c.VictimGbps))
		}
	}
}
