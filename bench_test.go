package ragnar_test

import (
	"testing"

	"github.com/thu-has/ragnar/internal/experiments"
)

// BenchmarkRegistry runs every registered experiment — each table, figure
// and follow-on study `ragnar all` prints — as one sub-benchmark at the
// CLI's default Params, so `go test -bench Registry -benchmem` gives the
// host cost of every `ragnar <exp>`. The rendered rows come from
// `ragnar <exp>` (`-full` for paper scale) and are pinned by the goldens in
// internal/experiments.
func BenchmarkRegistry(b *testing.B) {
	p := experiments.DefaultParams()
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
