package sim

import (
	"testing"
)

func TestRunBeforeExclusiveBound(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunBefore(30)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("RunBefore(30) fired %v, want [10 20]", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v after RunBefore, want 20 (last fired event, not the bound)", e.Now())
	}
	// The event at the bound must still be queued and fireable.
	if got := e.LivePending(); got != 1 {
		t.Fatalf("LivePending = %d, want 1", got)
	}
	e.Run()
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("event at the bound lost: fired %v", fired)
	}
}

func TestRunBeforeAllowsSchedulingInsideWindow(t *testing.T) {
	// A callback firing at t=10 schedules a follow-up at t=15, still inside
	// the window [0, 20): it must fire in the same RunBefore call.
	e := NewEngine(1)
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.At(15, func() { got = append(got, e.Now()) })
	})
	e.RunBefore(20)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("fired %v, want [10 15]", got)
	}
}

func TestNextEventTimeSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(5, func() {})
	e.At(9, func() {})
	if when, ok := e.NextEventTime(); !ok || when != 5 {
		t.Fatalf("NextEventTime = %v,%v want 5,true", when, ok)
	}
	ev.Cancel()
	if when, ok := e.NextEventTime(); !ok || when != 9 {
		t.Fatalf("after cancel NextEventTime = %v,%v want 9,true", when, ok)
	}
	e.Run()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime reports an event on a drained engine")
	}
}

func TestAdvanceToMonotonic(t *testing.T) {
	e := NewEngine(1)
	e.AdvanceTo(100)
	if e.Now() != 100 {
		t.Fatalf("now = %v, want 100", e.Now())
	}
	e.AdvanceTo(40) // backwards is a no-op
	if e.Now() != 100 {
		t.Fatalf("AdvanceTo moved the clock backwards: now = %v", e.Now())
	}
	// Scheduling before the advanced clock must still panic.
	defer func() {
		if recover() == nil {
			t.Fatal("At before now did not panic after AdvanceTo")
		}
	}()
	e.At(50, func() {})
}

func TestLivePendingIgnoresCancelled(t *testing.T) {
	e := NewEngine(1)
	keep := 0
	e.At(10, func() { keep++ })
	ev1 := e.At(20, func() {})
	ev2 := e.At(30, func() {})
	ev1.Cancel()
	ev2.Cancel()
	// Cancel removes heap entries at once: neither count sees them.
	if p, lp := e.Pending(), e.LivePending(); p != 1 || lp != 1 {
		t.Fatalf("Pending=%d LivePending=%d, want 1 and 1", p, lp)
	}
	if err := e.DrainCheck(); err == nil {
		t.Fatal("DrainCheck passed with a live event queued")
	}
	e.Run()
	if keep != 1 {
		t.Fatalf("live event did not fire (keep=%d)", keep)
	}
	if err := e.DrainCheck(); err != nil {
		t.Fatalf("DrainCheck after full drain: %v", err)
	}
}

func TestLivePendingSeesBatchTail(t *testing.T) {
	// While a same-timestamp batch is active, unfired batch entries must be
	// counted: schedule two events at t=10; the first one checks LivePending
	// mid-batch.
	e := NewEngine(1)
	var mid int
	e.At(10, func() { mid = e.LivePending() })
	e.At(10, func() {})
	e.At(50, func() {})
	e.Run()
	if mid != 2 {
		t.Fatalf("LivePending mid-batch = %d, want 2 (batch tail + heap)", mid)
	}
}

func TestDrainCheckCleanOnFreshEngine(t *testing.T) {
	e := NewEngine(1)
	if err := e.DrainCheck(); err != nil {
		t.Fatalf("fresh engine DrainCheck: %v", err)
	}
}
