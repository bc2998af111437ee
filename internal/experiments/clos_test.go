package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// TestClosExperimentDeterministic sweeps engine-domain count and worker
// count jointly: every (domains, workers) pair must render the identical
// table. Domain partitioning is the parallel-engine equivalence contract;
// worker independence is the per-cell seed-derivation contract — and the
// grid pins that the two compose (partitioned fabrics running concurrently
// in different worker goroutines still match the serial single-worker run).
func TestClosExperimentDeterministic(t *testing.T) {
	render := func(domains, workers int) string {
		r, err := Clos(nic.CX5, domains, false, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		r.Domains = 1 // drop the only legitimately varying field from the comparison
		return r.Render()
	}
	want := render(1, 1)
	for _, domains := range []int{1, 2, 3, 6} {
		for _, workers := range []int{1, 2, 4} {
			if domains == 1 && workers == 1 {
				continue
			}
			if got := render(domains, workers); got != want {
				t.Errorf("domains=%d workers=%d diverged from serial single-worker run:\n--- want ---\n%s--- got ---\n%s",
					domains, workers, want, got)
			}
		}
	}
}

// TestClosTreeSpansSwitches pins the experiment's headline claim: the
// over-threshold aggressor cell must light up PFC beyond the server leaf —
// at least one spine — while the under-threshold cell stays PFC-silent.
func TestClosTreeSpansSwitches(t *testing.T) {
	r, err := Clos(nic.CX5, 2, false, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) < 2 {
		t.Fatalf("want >=2 cells, got %d", len(r.Cells))
	}
	small, big := r.Cells[0], r.Cells[len(r.Cells)-1]
	if small.LeafPFC != 0 || small.SpinePFC != 0 {
		t.Errorf("under-threshold cell (%dB) asserted PFC: leaf=%d spine=%d",
			small.AggSize, small.LeafPFC, small.SpinePFC)
	}
	if big.SpinePFC == 0 || big.PausedSw < 2 {
		t.Errorf("over-threshold cell (%dB) tree did not span: spinePFC=%d pausedSw=%d",
			big.AggSize, big.SpinePFC, big.PausedSw)
	}
	if big.MeanVictimGbps() >= big.SoloGbps {
		t.Errorf("aggressor did not squeeze victims: contention %.2f >= solo %.2f Gbps",
			big.MeanVictimGbps(), big.SoloGbps)
	}
}
