package experiments

import (
	"strings"
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
)

// TestVictimSetReportsErrors deregisters the server MR under running
// victims: their WRITEs complete in error, and the victim set reports it.
func TestVictimSetReportsErrors(t *testing.T) {
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Clients = 2
	c := lab.Star(cfg)
	mr, err := c.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := dialVictims(c, mr, 0, 2, tenantVictimSize, tenantVictimDepth, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.start(); err != nil {
		t.Fatal(err)
	}
	vs.mark()
	c.RunFor(tenantWindow)
	if err := vs.err(); err != nil {
		t.Fatalf("healthy victims: %v", err)
	}
	for i, g := range vs.gbps(tenantWindow) {
		if g <= 0 {
			t.Fatalf("victim %d moved no data before the deregistration", i)
		}
	}
	mr.DeregMR()
	c.RunFor(tenantWindow)
	if err := vs.err(); err == nil || !strings.Contains(err.Error(), "victim completions errored") {
		t.Fatalf("after DeregMR: err = %v, want victim completions errored", err)
	}
}
