package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, runtime.NumCPU(), 200} {
		out, err := Map(workers, items, func(v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(workers, items, func(int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent cells, cap is %d", p, workers)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	items := []int{0, 1, 2, 3}
	_, err := Map(2, items, func(v int) (int, error) {
		if v == 2 {
			panic("boom")
		}
		return v, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 2 || pe.Value != "boom" {
		t.Fatalf("panic error: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "goroutine") {
		t.Fatal("panic error lost its stack trace")
	}
}

func TestMapSequentialPanicCapturedToo(t *testing.T) {
	_, err := Map(1, []int{1}, func(int) (int, error) {
		panic("inline")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	// Every cell fails; whatever the scheduling, the reported error must be
	// the lowest-index one among those that ran — with workers=1 that is
	// deterministically cell 0.
	items := make([]int, 10)
	for i := range items {
		items[i] = i
	}
	_, err := Map(1, items, func(i int) (int, error) {
		return 0, fmt.Errorf("cell %d failed", i)
	})
	if err == nil || err.Error() != "cell 0 failed" {
		t.Fatalf("err = %v, want cell 0's", err)
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int64
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	_, err := Map(2, items, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(100 * time.Microsecond)
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d cells ran after an early failure; dispatch should stop", n)
	}
}

func TestMapEmptyAndSingleton(t *testing.T) {
	out, err := Map(8, []int(nil), func(v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty: out=%v err=%v", out, err)
	}
	out, err = Map(8, []int{42}, func(v int) (int, error) { return v + 1, nil })
	if err != nil || len(out) != 1 || out[0] != 43 {
		t.Fatalf("singleton: out=%v err=%v", out, err)
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) != runtime.NumCPU() || Workers(-3) != runtime.NumCPU() {
		t.Fatal("non-positive should select NumCPU")
	}
	if Workers(5) != 5 {
		t.Fatal("positive passes through")
	}
}

// TestMapDeterministicAcrossWorkerCounts is the package-level statement of
// the headline property: a pure-per-index fn yields byte-identical output
// at every worker count.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i
	}
	run := func(workers int) string {
		out, err := Map(workers, items, func(i int) (string, error) {
			return fmt.Sprintf("%d-%x", i, i*2654435761), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, "|")
	}
	want := run(1)
	for _, w := range []int{2, 3, runtime.NumCPU(), 64} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d diverged from sequential", w)
		}
	}
}
