package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30*Nanosecond, func() { got = append(got, 3) })
	e.After(10*Nanosecond, func() { got = append(got, 1) })
	e.After(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != Time(30*Nanosecond) {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*Nanosecond), func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.After(Nanosecond, func() {
		trace = append(trace, e.Now())
		e.After(Nanosecond, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != Time(Nanosecond) || trace[1] != Time(2*Nanosecond) {
		t.Fatalf("nested scheduling trace = %v", trace)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(Nanosecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(Time(5*Nanosecond), func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-Nanosecond, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.After(Microsecond, func() { fired++ })
	e.After(3*Microsecond, func() { fired++ })
	e.RunUntil(Time(2 * Microsecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(2*Microsecond) {
		t.Fatalf("clock = %v, want 2us", e.Now())
	}
	// The remaining event still fires on a later run.
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after full run, want 2", fired)
	}
}

func TestRunUntilSkipsCanceledHead(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(Nanosecond, func() { t.Error("cancelled head fired") })
	fired := false
	e.After(2*Nanosecond, func() { fired = true })
	ev.Cancel()
	e.RunUntil(Time(5 * Nanosecond))
	if !fired {
		t.Fatal("live event after cancelled head did not fire")
	}
}

func TestHaltStopsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.After(Duration(i)*Nanosecond, func() {
			count++
			if count == 2 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d after halt, want 2", count)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		for i := 0; i < 100; i++ {
			d := Duration(e.Rand().Int63n(int64(Microsecond)))
			e.After(d, func() { out = append(out, int64(e.Now())) })
		}
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine fires every event exactly once.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			e.After(Duration(d%1_000_000)*Nanosecond, func() {
				times = append(times, e.Now())
			})
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, "pu", 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Submit(10*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if e.Now() != Time(40*Nanosecond) {
		t.Fatalf("single-slot server finished at %v, want 40ns", e.Now())
	}
	if s.Served() != 4 {
		t.Fatalf("served = %d, want 4", s.Served())
	}
}

func TestServerParallelSlots(t *testing.T) {
	e := NewEngine(1)
	s := NewServer(e, "dma", 2)
	done := 0
	for i := 0; i < 4; i++ {
		s.Submit(10*Nanosecond, func() { done++ })
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if e.Now() != Time(20*Nanosecond) {
		t.Fatalf("2-slot server finished at %v, want 20ns", e.Now())
	}
}

func TestPriorityServerClassOrder(t *testing.T) {
	e := NewEngine(1)
	s := newPriorityServer(e, "egress", 1)
	var order []int
	// Occupy the slot so subsequent submissions queue.
	s.Submit(10*Nanosecond, 0, nil)
	s.Submit(10*Nanosecond, 2, func() { order = append(order, 2) })
	s.Submit(10*Nanosecond, 1, func() { order = append(order, 1) })
	s.Submit(10*Nanosecond, 1, func() { order = append(order, 11) })
	e.Run()
	want := []int{1, 11, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestNoiseBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewNoise(rng, 5*Nanosecond, 100*Nanosecond, 0.01)
	for i := 0; i < 10000; i++ {
		d := n.Sample()
		if d < -15*Nanosecond {
			t.Fatalf("noise sample %v below -3 sigma", d)
		}
		if d > 115*Nanosecond {
			t.Fatalf("noise sample %v above spike+3sigma", d)
		}
	}
}

func TestNoiseNilSafe(t *testing.T) {
	var n *Noise
	if n.Sample() != 0 {
		t.Fatal("nil noise must sample 0")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{1500 * Nanosecond, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationScale(t *testing.T) {
	if got := (100 * Nanosecond).Scale(1.5); got != 150*Nanosecond {
		t.Fatalf("Scale(1.5) = %v", got)
	}
	if got := (100 * Nanosecond).Scale(0); got != 0 {
		t.Fatalf("Scale(0) = %v", got)
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		d := Uniform(rng, 100*Nanosecond)
		if d < 0 || d >= 100*Nanosecond {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	if Uniform(rng, 0) != 0 {
		t.Fatal("Uniform(0) != 0")
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(1500 * Nanosecond)
	if tm.Nanoseconds() != 1500 {
		t.Fatalf("ns = %v", tm.Nanoseconds())
	}
	if tm.Microseconds() != 1.5 {
		t.Fatalf("us = %v", tm.Microseconds())
	}
	if tm.Add(500*Nanosecond).Sub(tm) != 500*Nanosecond {
		t.Fatal("Add/Sub inconsistent")
	}
	d := 2500 * Nanosecond
	if d.Std().Nanoseconds() != 2500 {
		t.Fatalf("Std = %v", d.Std())
	}
	if Duration(Second).Seconds() != 1 {
		t.Fatal("Seconds conversion")
	}
}

func TestRunForAdvances(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.After(10*Microsecond, func() { fired = true })
	e.RunFor(5 * Microsecond)
	if fired || e.Now() != Time(5*Microsecond) {
		t.Fatalf("RunFor mishandled: fired=%v now=%v", fired, e.Now())
	}
	e.RunFor(10 * Microsecond)
	if !fired {
		t.Fatal("event within second RunFor window did not fire")
	}
}

func TestPendingAndFiredCounters(t *testing.T) {
	e := NewEngine(1)
	e.After(Nanosecond, func() {})
	e.After(2*Nanosecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if e.Fired() != 2 || e.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", e.Fired(), e.Pending())
	}
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
