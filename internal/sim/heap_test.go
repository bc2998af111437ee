package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// ---------------------------------------------------------------------------
// Property: fire order matches a reference sort.

// TestHeapMatchesReferenceSort drives random schedules (duplicate
// timestamps, random pre-run cancels) and checks the fire order against a
// stable sort by (when, seq) with cancelled entries removed — the scheduler
// contract stated in DESIGN.md §9.
func TestHeapMatchesReferenceSort(t *testing.T) {
	type scheduled struct {
		id     int
		when   Time
		cancel bool
	}
	f := func(delays []uint16, cancelBits []bool) bool {
		e := NewEngine(1)
		var plan []scheduled
		var got []int
		for i, d := range delays {
			// Coarse quantisation forces plenty of same-timestamp ties.
			when := Time(d % 64)
			cancel := i < len(cancelBits) && cancelBits[i]
			plan = append(plan, scheduled{id: i, when: when, cancel: cancel})
			id := i
			ev := e.At(when, func() { got = append(got, id) })
			if cancel {
				ev.Cancel()
			}
		}
		e.Run()
		var want []int
		sort.SliceStable(plan, func(i, j int) bool { return plan[i].when < plan[j].when })
		for _, s := range plan {
			if !s.cancel {
				want = append(want, s.id)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSameTimestampFIFOThroughBatch covers the batch fast path: events
// scheduled *for the current timestamp from inside a callback* must fire
// after every earlier event of that timestamp, in schedule order.
func TestSameTimestampFIFOThroughBatch(t *testing.T) {
	e := NewEngine(1)
	var got []int
	at := Time(10 * Nanosecond)
	for i := 0; i < 5; i++ {
		i := i
		e.At(at, func() {
			got = append(got, i)
			if i == 1 {
				// Mid-batch schedule at the same timestamp: takes the
				// direct-append fast path.
				e.At(at, func() { got = append(got, 100) })
				e.At(at, func() { got = append(got, 101) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 100, 101}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestBatchCancelMidRun cancels a same-timestamp sibling from within the
// batch that contains it.
func TestBatchCancelMidRun(t *testing.T) {
	e := NewEngine(1)
	var got []int
	at := Time(5 * Nanosecond)
	var victim Event
	e.At(at, func() {
		got = append(got, 0)
		victim.Cancel()
	})
	victim = e.At(at, func() { got = append(got, 1) })
	e.At(at, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("fired %v, want [0 2]", got)
	}
}

// ---------------------------------------------------------------------------
// Free-list / generation safety.

// TestFreeListNoResurrection checks that a stale handle (its event fired or
// cancelled, its slot since recycled) cannot cancel — or report state for —
// the slot's new occupant.
func TestFreeListNoResurrection(t *testing.T) {
	e := NewEngine(1)
	a := e.After(Nanosecond, func() { t.Error("cancelled event fired") })
	a.Cancel() // removes the entry, frees the slot
	e.Run()
	if a.Pending() {
		t.Fatal("cancelled handle still pending")
	}

	fired := false
	b := e.After(Nanosecond, func() { fired = true }) // reuses a's slot
	a.Cancel()                                        // stale: must not touch b
	if !b.Pending() {
		t.Fatal("fresh event lost its pending state to a stale Cancel")
	}
	if b.Canceled() {
		t.Fatal("fresh event reports cancelled after stale Cancel")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}

	// Use-after-fire: b has fired; cancelling it must not touch whatever
	// occupies the slot next.
	ok := false
	c := e.After(Nanosecond, func() { ok = true })
	b.Cancel()
	e.Run()
	if !ok {
		t.Fatal("fired handle's Cancel leaked into reused slot")
	}
	_ = c
}

// TestHandleStateAcrossLifetime pins the Event handle accessors across the
// schedule → fire → reuse lifecycle.
func TestHandleStateAcrossLifetime(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(3*Nanosecond, func() {})
	if !ev.Pending() || ev.Canceled() {
		t.Fatal("fresh event not pending")
	}
	if ev.When() != Time(3*Nanosecond) {
		t.Fatalf("When = %v", ev.When())
	}
	e.Run()
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
	if ev.When() != Time(3*Nanosecond) {
		t.Fatal("When lost after fire")
	}
	var zero Event
	if zero.Pending() || zero.Canceled() {
		t.Fatal("zero Event must be inert")
	}
	zero.Cancel() // must not panic
}

// ---------------------------------------------------------------------------
// Equivalence against the previous container/heap scheduler.

// refEngine is a faithful copy of the pre-refactor scheduler: container/heap
// over *refEvent with (when, seq) ordering and lazy cancellation. It exists
// so the determinism suite can replay identical schedules on both
// implementations and compare fire orders event for event.
type refEvent struct {
	when     Time
	seq      uint64
	index    int
	fn       func()
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type refEngine struct {
	now   Time
	seq   uint64
	queue refQueue
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	ev := &refEvent{when: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) run() {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.when
		ev.fn()
	}
}

// schedOp drives one callback of a recorded schedule: how many children to
// schedule (and at which relative delays), and which earlier event to
// cancel, if any. The schedule is generated once per seed and replayed
// verbatim on both engines.
type schedOp struct {
	delays    []Duration // children to schedule from this callback
	cancelIdx int        // event id to cancel from this callback, -1 none
}

func genSchedule(seed int64, n int, delay func(*rand.Rand) Duration) []schedOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]schedOp, n)
	for i := range ops {
		k := rng.Intn(3)
		for j := 0; j < k; j++ {
			ops[i].delays = append(ops[i].delays, delay(rng))
		}
		ops[i].cancelIdx = -1
		if rng.Intn(4) == 0 {
			ops[i].cancelIdx = rng.Intn(n)
		}
	}
	return ops
}

// mixedDelay mixes zero (same-timestamp fast path), small and large delays.
func mixedDelay(rng *rand.Rand) Duration {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return Duration(rng.Intn(50)) * Nanosecond
	default:
		return Duration(rng.Intn(5000)) * Nanosecond
	}
}

// TestEngineMatchesReferenceHeap replays recorded schedules — nested
// scheduling, same-timestamp bursts, cross-cancellation — on the production
// engine and on the container/heap reference, and requires identical fire
// orders. Beyond the mixed schedule, the cases walk the radix queue's edges:
//
//   - wide: delays from 1 ps to about 2^40 ps, so entries sit in every
//     bucket and refills re-file across many bits;
//   - refile: a few delays repeated many times, so runs of equal times are
//     re-filed together out of one bucket after cancels have swap-removed
//     entries from it;
//   - stepped: the run advances in RunUntil steps. Between steps, events are
//     scheduled from outside at now and just after it, and some are
//     cancelled at once. A step ending on an event time leaves now at the
//     last refill, so those events go to bucket 0 and the cancels remove
//     from it; a step ending between events leaves now past the last refill
//     before the new events are scheduled.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	cases := []struct {
		name  string
		delay func(*rand.Rand) Duration
		step  Duration // 0: one Run; else RunUntil steps with outside events
	}{
		{"mixed", mixedDelay, 0},
		{"wide", func(rng *rand.Rand) Duration {
			return 1 + Duration(rng.Int63n(1<<uint(rng.Intn(41))))
		}, 0},
		{"refile", func(rng *rand.Rand) Duration {
			return [...]Duration{0, Picosecond, 300 * Nanosecond, 300 * Nanosecond, 301 * Nanosecond}[rng.Intn(5)]
		}, 0},
		{"stepped", func(rng *rand.Rand) Duration { return Duration(rng.Intn(6)*10) * Nanosecond }, 25 * Nanosecond},
	}
	const nOps = 400
	for _, tc := range cases {
		for seed := int64(1); seed <= 25; seed++ {
			ops := genSchedule(seed, nOps, tc.delay)
			got, want := runSchedule(ops, tc.step, seed, engineSched{NewEngine(1)}), runSchedule(ops, tc.step, seed, refSched{&refEngine{}})
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: fired %d events, reference fired %d", tc.name, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: orders diverge at %d: %d vs %d", tc.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// scheduler is what runSchedule needs of an engine, so one function replays a
// schedule on the production engine and on the reference.
type scheduler interface {
	now() Time
	at(t Time, fn func()) (cancel func())
	run()
	runUntil(deadline Time)
	idle() bool
}

type engineSched struct{ e *Engine }

func (s engineSched) now() Time { return s.e.Now() }
func (s engineSched) at(t Time, fn func()) func() {
	ev := s.e.At(t, fn)
	return ev.Cancel
}
func (s engineSched) run()                   { s.e.Run() }
func (s engineSched) runUntil(deadline Time) { s.e.RunUntil(deadline) }
func (s engineSched) idle() bool             { return s.e.Pending() == 0 }

// refSched adapts the reference engine; its RunUntil also advances the
// clock to the deadline, as the production engine's does.
type refSched struct{ e *refEngine }

func (s refSched) now() Time { return s.e.now }
func (s refSched) at(t Time, fn func()) func() {
	ev := s.e.at(t, fn)
	return func() { ev.canceled = true }
}
func (s refSched) run() { s.e.run() }
func (s refSched) runUntil(deadline Time) {
	s.e.runUntil(deadline)
	s.e.now = max(s.e.now, deadline)
}
func (s refSched) idle() bool { return s.e.live() == 0 }

// runSchedule replays ops on s and returns the ids in fire order. With step
// > 0 it advances in RunUntil steps and, between steps, schedules up to
// three outside events at now or 1 ps / 10 ns after it, cancelling the
// first of them at once when a coin says so.
func runSchedule(ops []schedOp, step Duration, seed int64, s scheduler) []int {
	nOps := len(ops)
	var got []int
	cancels := make([]func(), nOps)
	next := 0
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			got = append(got, id)
			op := ops[id%nOps]
			for _, d := range op.delays {
				if next < nOps {
					id2 := next
					next++
					cancels[id2] = s.at(s.now().Add(d), fire(id2))
				}
			}
			if op.cancelIdx >= 0 && op.cancelIdx < next && cancels[op.cancelIdx] != nil {
				cancels[op.cancelIdx]()
			}
		}
	}
	for i := 0; i < 8; i++ {
		id := next
		next++
		cancels[id] = s.at(Time(Duration(i)*Nanosecond), fire(id))
	}
	if step == 0 {
		s.run()
		return got
	}
	rng := rand.New(rand.NewSource(seed))
	for deadline := Time(step); !s.idle() || next < nOps; deadline += Time(step) {
		s.runUntil(deadline)
		first := -1
		for k := rng.Intn(4); k > 0 && next < nOps; k-- {
			d := [...]Duration{0, 0, Picosecond, 10 * Nanosecond}[rng.Intn(4)]
			id := next
			next++
			cancels[id] = s.at(deadline.Add(d), fire(id))
			if first < 0 {
				first = id
			}
		}
		if first >= 0 && rng.Intn(2) == 0 {
			cancels[first]()
		}
	}
	return got
}

// live counts the reference queue's uncancelled entries.
func (e *refEngine) live() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// runUntil fires every event at or before deadline.
func (e *refEngine) runUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].when <= deadline {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.when
		ev.fn()
	}
}

// TestEagerCancelMatchesReference is the eager-cancel property: under
// random At and Cancel — cancels of entries deep inside the heap, of entries
// already popped into the active same-timestamp batch, and of fired events —
// the engine fires exactly what the lazily-cancelling reference fires, in
// the same order, and whenever no batch is active Pending and LivePending
// both equal the reference's live count. Coarse 10 ns delays force
// same-timestamp batches; the run advances in RunUntil steps so the counts
// are checked between batches.
func TestEagerCancelMatchesReference(t *testing.T) {
	const nOps = 600
	var heapCancels, batchCancels int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			delays []Duration
			cancel int // id to cancel from this callback, -1 none
		}
		ops := make([]op, nOps)
		for i := range ops {
			for k := rng.Intn(4); k > 0; k-- {
				ops[i].delays = append(ops[i].delays, Duration(rng.Intn(4)*10)*Nanosecond)
			}
			ops[i].cancel = -1
			if rng.Intn(3) == 0 {
				ops[i].cancel = rng.Intn(nOps)
			}
		}

		e := NewEngine(1)
		ref := &refEngine{}
		var got, want []int
		handles := make([]Event, nOps)
		refHandles := make([]*refEvent, nOps)
		next, refNext := 0, 0
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				got = append(got, id)
				for _, d := range ops[id].delays {
					if next < nOps {
						handles[next] = e.After(d, fire(next))
						next++
					}
				}
				if c := ops[id].cancel; c >= 0 && c < next && handles[c].Pending() {
					if e.slots[handles[c].slot].pos == notInHeap {
						batchCancels++
					} else {
						heapCancels++
					}
					handles[c].Cancel()
				}
				if lp, p := e.LivePending(), e.Pending(); lp > p {
					t.Fatalf("seed %d: LivePending %d > Pending %d", seed, lp, p)
				}
			}
		}
		var refFire func(id int) func()
		refFire = func(id int) func() {
			return func() {
				want = append(want, id)
				for _, d := range ops[id].delays {
					if refNext < nOps {
						refHandles[refNext] = ref.at(ref.now.Add(d), refFire(refNext))
						refNext++
					}
				}
				if c := ops[id].cancel; c >= 0 && c < refNext {
					refHandles[c].canceled = true
				}
			}
		}
		for i := 0; i < 16; i++ {
			handles[next] = e.After(Duration(i%4*10)*Nanosecond, fire(next))
			next++
			refHandles[refNext] = ref.at(Time(Duration(i%4*10)*Nanosecond), refFire(refNext))
			refNext++
		}
		for step := Time(0); len(ref.queue) > 0 || e.Pending() > 0; step += Time(25 * Nanosecond) {
			e.RunUntil(step)
			ref.runUntil(step)
			if p, lp, rl := e.Pending(), e.LivePending(), ref.live(); p != rl || lp != rl {
				t.Fatalf("seed %d at %v: Pending=%d LivePending=%d, reference live %d", seed, step, p, lp, rl)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d at %v: fired %d events, reference %d", seed, step, len(got), len(want))
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire orders diverge at %d: %d vs %d", seed, i, got[i], want[i])
			}
		}
	}
	if heapCancels == 0 || batchCancels == 0 {
		t.Fatalf("schedule exercised %d heap and %d batch cancels; want both", heapCancels, batchCancels)
	}
}

// ---------------------------------------------------------------------------
// GC regression: fired and cancelled callbacks must be unreachable.

func waitCollected(t *testing.T, collected chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s still reachable after GC: the engine retains the callback", what)
}

// TestFiredCallbackCollectable is the regression test for the old engine's
// leak: a fired event's *Event kept its closure — and every rig object the
// closure captured — alive for as long as the caller held the handle. The
// slot-based engine clears fn when the slot is freed, so holding the handle
// must not pin the callback.
func TestFiredCallbackCollectable(t *testing.T) {
	e := NewEngine(1)
	collected := make(chan struct{})
	ev := func() Event {
		rig := new([1 << 16]byte) // stand-in for a captured rig
		runtime.SetFinalizer(rig, func(*[1 << 16]byte) { close(collected) })
		return e.After(Nanosecond, func() { rig[0] = 1 })
	}()
	e.Run()
	waitCollected(t, collected, "fired callback")
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
}

// TestCancelledCallbackCollectable: Cancel must drop the callback reference
// immediately, without waiting for the engine to run.
func TestCancelledCallbackCollectable(t *testing.T) {
	e := NewEngine(1)
	collected := make(chan struct{})
	ev := func() Event {
		rig := new([1 << 16]byte)
		runtime.SetFinalizer(rig, func(*[1 << 16]byte) { close(collected) })
		return e.After(Millisecond, func() { rig[0] = 1 })
	}()
	ev.Cancel()
	// No Run: Cancel alone has removed the entry and dropped fn.
	waitCollected(t, collected, "cancelled callback")
}
