package experiments

// Golden-output tests: the rendered rows of the paper's tables and figures
// are pinned to testdata/*.golden, and every scenario is rendered both
// sequentially and at a fixed 4 workers. Together they prove the parallel
// sweep engine neither reorders nor perturbs a single rendered row.
// Regenerate after an intentional model change with:
//
//	go test ./internal/experiments -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/revengine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenWorkers is the parallel half of every golden check. It is fixed
// rather than NumCPU so the parallel path runs even on a 1-CPU machine.
const goldenWorkers = 4

func checkGolden(t *testing.T, name string, render func(workers int) string) {
	t.Helper()
	seq := render(1)
	par := render(goldenWorkers)
	if seq != par {
		t.Fatalf("%s: parallel render differs from sequential render\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
			name, seq, goldenWorkers, par)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != seq {
		t.Fatalf("%s: render drifted from golden file (rerun with -update if the change is intentional)\n--- got ---\n%s\n--- want ---\n%s",
			name, seq, want)
	}
}

// goldenRows pins registered experiments to golden files. Each file is
// byte-for-byte what `ragnar` prints at the row's Params (workers aside).
var goldenRows = []struct {
	name, file string
	p          Params
}{
	{"table1", "table1", Params{}},
	{"table3", "table3", Params{}},
	{"fig4", "fig4_cx4", Params{Profile: nic.CX4, Seed: 1}},
	{"fig7", "fig7_cx4", Params{Profile: nic.CX4, Seed: 1}},
	{"fig9", "fig9", Params{Seed: 1}},
	{"fig10", "fig10", Params{Seed: 1}},
	{"fig11", "fig11", Params{Seed: 1}},
	{"tenants", "tenants_cx5", Params{Profile: nic.CX5, Seed: 1}},
	{"exhaust", "exhaust_cx5", Params{Profile: nic.CX5, Seed: 1}},
	{"nvmf", "nvmf_cx5", Params{Profile: nic.CX5, Seed: 1}},
	{"pythia", "pythia", Params{Seed: 1}},
	{"fig12", "fig12_cx4", Params{Profile: nic.CX4, Seed: 1}},
	{"fig12robust", "fig12robust_cx5", Params{Profile: nic.CX5, Seed: 1}},
	{"defense", "defense_cx4", Params{Profile: nic.CX4, Seed: 1}},
	// CX-6's 12.3 µs intra-MR symbol is shorter than the receiver's probe
	// ramp under 800 ns of noise, so the first symbol window is blank.
	{"defense", "defense_cx6", Params{Profile: nic.CX6, Seed: 1}},
	{"defgrid", "defgrid_cx5", Params{Profile: nic.CX5, Seed: 5}},
	{"redn", "redn_cx5", Params{Profile: nic.CX5, Seed: 7}},
	// Two engine domains, so the golden check exercises the partitioned
	// engine's window protocol, not just the serial path.
	{"clos", "clos_cx5", Params{Profile: nic.CX5, Seed: 1, Domains: 2}},
}

// goldenOptOut names each registered experiment without a golden row, and
// why.
var goldenOptOut = map[string]string{
	"fig5":     "TestGoldenFig5Render pins a 120-probe fixture",
	"fig6":     "TestGoldenOffsetRender pins a reduced offset axis",
	"fig8":     "TestGoldenRelOffsetRender pins a reduced delta axis",
	"table5":   "TestGoldenTable5Render pins a 64-bit fixture",
	"lossgrid": "TestGoldenLossGridRender pins a reduced loss grid",
	"fig13":    "CNN training is too slow for a golden; TestFig13SmallSmoke covers it",
}

// TestGoldenRegistry checks every registered experiment against its golden
// row. A registered name with neither a row nor an opt-out fails, and so
// does a row or opt-out naming no registered experiment.
func TestGoldenRegistry(t *testing.T) {
	pending := map[string]bool{}
	for _, row := range goldenRows {
		pending[row.name] = true
	}
	for name := range goldenOptOut {
		pending[name] = true
	}
	for _, e := range Registry {
		if !pending[e.Name] {
			t.Errorf("experiment %q has neither a golden row nor an opt-out", e.Name)
		}
		delete(pending, e.Name)
	}
	for name := range pending {
		t.Errorf("golden row or opt-out %q names no registered experiment", name)
	}

	for _, row := range goldenRows {
		e, ok := Lookup(row.name)
		if !ok {
			continue
		}
		if reason, dup := goldenOptOut[row.name]; dup {
			t.Errorf("experiment %q has a golden row and an opt-out (%s)", row.name, reason)
		}
		t.Run(row.name, func(t *testing.T) {
			checkGolden(t, row.file, func(workers int) string {
				p := row.p
				p.Workers = workers
				r, err := e.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				return r.Render()
			})
		})
	}
}

func TestGoldenOffsetRender(t *testing.T) {
	// A reduced Figure 6: enough offsets to exercise the 8/64 B structure in
	// the rendered rows without the full offsetsAround() axis.
	offsets := []uint64{0, 7, 8, 63, 64, 65, 128, 2048, 4096}
	checkGolden(t, "fig6_cx4_small", func(workers int) string {
		points, err := revengine.AbsOffsetSweep(nic.CX4, 64, offsets, 120, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		r := OffsetResult{NIC: nic.CX4.Name, Figure: "Figure 6 (abs offset, 64B reads)", MsgSize: 64, Points: points}
		return r.Render()
	})
}

func TestGoldenRelOffsetRender(t *testing.T) {
	deltas := []uint64{64, 512, 1024, 1088, 2048}
	checkGolden(t, "fig8_cx4_small", func(workers int) string {
		points, err := revengine.RelOffsetSweep(nic.CX4, 64, deltas, 120, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		r := OffsetResult{NIC: nic.CX4.Name, Figure: "Figure 8 (rel offset, 64B reads)", MsgSize: 64, Points: points}
		return r.Render()
	})
}

func TestGoldenFig5Render(t *testing.T) {
	checkGolden(t, "fig5_cx4", func(workers int) string {
		r, err := Fig5(nic.CX4, 120, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

func TestGoldenTable5Render(t *testing.T) {
	checkGolden(t, "table5", func(workers int) string {
		r, err := Table5(64, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}
