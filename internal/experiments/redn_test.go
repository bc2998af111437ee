package experiments

import (
	"fmt"
	"strings"
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
)

// The chain-leakage headline, asserted numerically: on CX5 the taken arm is
// distinguishable from the not-taken arm through the prober's own ULI
// (HARMONIC trained on not-taken trials flags the taken ones), the server
// sees no chain observables at all, and the channel survives the CX5-ISO
// arbiter partition because the carrier is PU contention.
func TestRednDistinguishability(t *testing.T) {
	if testing.Short() {
		t.Skip("full chain-leakage run in -short mode")
	}
	r, err := Redn(nic.CX5, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(r.Rows))
	}
	base, iso := r.Rows[0], r.Rows[1]
	if base.GapNs <= 0 {
		t.Errorf("CX5 taken-vs-idle ULI gap %.1f ns, want positive contention", base.GapNs)
	}
	if base.Flagged[0] < base.Flagged[1] {
		t.Errorf("CX5 HARMONIC flagged %d/%d taken trials, want all of them",
			base.Flagged[0], base.Flagged[1])
	}
	// The residual claim: the contention carrying the leak lives in the
	// shared rx/tx processing units, which the CX5-ISO arbiter partition
	// does not touch — the channel survives isolation nearly intact.
	if iso.GapNs < 0.5*base.GapNs {
		t.Errorf("CX5-ISO gap %.1f ns vs CX5 %.1f ns; the PU-contention channel should survive the arbiter partition",
			iso.GapNs, base.GapNs)
	}
	if iso.Flagged[0] < iso.Flagged[1] {
		t.Errorf("CX5-ISO HARMONIC flagged %d/%d, the residual channel should stay detectable",
			iso.Flagged[0], iso.Flagged[1])
	}
	// The provider-side blindness claim: the chain's WAIT/ENABLE/self-modify
	// activity is entirely tenant-local.
	if base.ServerChainOps != 0 || iso.ServerChainOps != 0 {
		t.Errorf("server-side chain observables (%d, %d), want 0 — management WQEs must not cross the wire",
			base.ServerChainOps, iso.ServerChainOps)
	}
	// The chain did actually execute on the taken arms: one WAIT per loop
	// barrier plus two If barriers per trial, one gate self-modify per trial.
	if base.WaitWQEs == 0 || base.SelfModifies == 0 {
		t.Errorf("CX5 chain counters wait=%d selfmod=%d, chain never ran", base.WaitWQEs, base.SelfModifies)
	}
}

// TestGoldenSQSeam pins the send-queue refactor seam at the experiment
// layer: a burst posted through the legacy one-shot PostRead and the same
// burst staged and enabled by one doorbell must produce completion
// timestamps that are byte-identical to each other and to the pinned
// pre-refactor schedule.
func TestGoldenSQSeam(t *testing.T) {
	checkGolden(t, "sqseam_cx5", func(workers int) string {
		run := func(staged bool) []int64 {
			c := lab.New(lab.DefaultConfig(nic.CX5))
			mr, err := c.RegisterServerMR(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := c.Dial(0, 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Warm(conn, mr); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if staged {
					err = conn.QP.StageRead(uint64(i+1), nil, mr.Describe(uint64(i)*4096), 1024)
				} else {
					err = conn.QP.PostRead(uint64(i+1), nil, mr.Describe(uint64(i)*4096), 1024)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if staged {
				if err := conn.QP.Ring(0); err != nil {
					t.Fatal(err)
				}
			}
			c.Run()
			var comps [32]nic.Completion
			n := conn.CQ.PollInto(comps[:])
			times := make([]int64, 0, n)
			for _, comp := range comps[:n] {
				times = append(times, int64(comp.DoneTime))
			}
			return times
		}
		legacy := run(false)
		stagedTimes := run(true)
		var b strings.Builder
		fmt.Fprintf(&b, "SQ seam [CX5]: 16 x 1 KB READ burst, legacy post vs stage+ring\n")
		for i, ts := range legacy {
			fmt.Fprintf(&b, "read %2d done %d ns\n", i+1, ts)
		}
		identical := len(legacy) == len(stagedTimes)
		if identical {
			for i := range legacy {
				if legacy[i] != stagedTimes[i] {
					identical = false
					break
				}
			}
		}
		fmt.Fprintf(&b, "staged burst byte-identical to legacy: %v\n", identical)
		return b.String()
	})
}
