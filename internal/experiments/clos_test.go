package experiments

import (
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// TestClosExperimentDeterministic pins the per-cell seed-derivation
// contract: the table renders identically at 1, 2 and 4 workers.
func TestClosExperimentDeterministic(t *testing.T) {
	render := func(workers int) string {
		r, err := Clos(nic.CX5, false, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	want := render(1)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != want {
			t.Errorf("workers=%d diverged from the single-worker run:\n--- want ---\n%s--- got ---\n%s",
				workers, want, got)
		}
	}
}

// TestClosTreeSpansSwitches pins the experiment's headline claim: the
// over-threshold aggressor cell must light up PFC beyond the server leaf —
// at least one spine — while the under-threshold cell stays PFC-silent.
func TestClosTreeSpansSwitches(t *testing.T) {
	r, err := Clos(nic.CX5, false, 1, 1)
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
