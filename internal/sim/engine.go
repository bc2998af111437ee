package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/thu-has/ragnar/internal/trace"
)

// Event is a handle to a scheduled callback. It is a small value (no heap
// allocation per schedule): the callback itself lives in an engine-owned
// slot, and the handle names that slot plus the generation it was armed
// under. Once the event fires or is cancelled the slot is recycled and its
// generation bumped, so a stale handle can never cancel (or resurrect) a
// later event that happens to reuse the slot.
//
// The zero Event is an inert handle: Cancel is a no-op, Pending reports
// false. See DESIGN.md §9 for the slot/generation scheme.
type Event struct {
	eng      *Engine
	slot     int32
	gen      uint32
	when     Time
	canceled bool
}

// When reports the virtual time the event was scheduled for. It stays valid
// after the event fires.
func (ev Event) When() Time { return ev.when }

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op. An event still
// queued is removed at once and its slot freed, so the queue never carries
// dead entries and anything the closure captured becomes collectable
// immediately. An event already moved into the active same-timestamp batch
// is marked and reaped when the batch walk reaches it.
func (ev *Event) Cancel() {
	if ev.eng == nil {
		return
	}
	ev.canceled = true
	e := ev.eng
	if !e.live(ev.slot, ev.gen) {
		return
	}
	s := &e.slots[ev.slot]
	if s.pos != notInHeap {
		e.queueDelete(s)
		e.freeSlot(ev.slot)
		return
	}
	s.canceled = true
	s.fn = nil
}

// Canceled reports whether Cancel was called through this handle. A copy of
// the handle taken before the Cancel does not see it: the cancel frees the
// slot, which is all a copy can observe (its Pending turns false).
func (ev Event) Canceled() bool { return ev.canceled }

// Pending reports whether the event is still scheduled: not yet fired and
// not cancelled. The zero Event is never pending.
func (ev Event) Pending() bool {
	return ev.eng != nil && ev.eng.live(ev.slot, ev.gen) && !ev.eng.slots[ev.slot].canceled
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: all model code runs single-threaded inside event callbacks,
// which is what makes runs reproducible.
//
// Internally the engine is allocation-free on the schedule+fire path (the
// bench-guard CI job enforces 0 allocs/op): a radix heap of value entries
// orders events, a slab free list recycles callback slots, and a batch
// buffer drains same-timestamp runs without touching the buckets for events
// scheduled "now" during the run — the common burst pattern when a fabric
// TC queue drains. Cancel removes queued entries eagerly, so the buckets
// hold only live events. See heap.go and DESIGN.md §9.
type Engine struct {
	now    Time
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool

	// Priority queue state (heap.go): the radix buckets, a bit per
	// non-empty bucket, the time of the last refill, the number of queued
	// entries, and the slot slab with its free list.
	buckets  [numBuckets][]heapEntry
	nonEmpty uint64
	last     Time
	queued   int
	slots    []eventSlot
	free     int32

	// Same-timestamp batch: the run of minimum-time entries taken from the
	// buckets, fired in seq order. While a batch for batchTime is active,
	// At() appends same-time events directly to it (their seq is
	// necessarily larger than everything already in the batch), skipping a
	// round-trip through the buckets per event.
	batch     []heapEntry
	batchIdx  int
	batchOn   bool
	batchTime Time

	rec      *trace.Recorder
	recActor uint16
}

// NewEngine returns an engine whose random source is seeded with seed.
// Identical seeds yield identical runs.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		slots: make([]eventSlot, 0, 256),
		batch: make([]heapEntry, 0, 64),
		free:  noSlot,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. Model code must use
// this source (never the global one) to stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired. Cancel
// removes queued entries at once, so outside a same-timestamp batch the
// count is exact (it equals LivePending). While a batch is active, a batch
// entry cancelled after it left the buckets still counts until the batch
// walk reaches it.
func (e *Engine) Pending() int {
	return e.queued + (len(e.batch) - e.batchIdx)
}

// LivePending counts scheduled events that have not fired and have not been
// cancelled. The buckets hold only live entries, so just the active batch's
// tail is scanned; outside a batch LivePending equals Pending.
func (e *Engine) LivePending() int {
	n := e.queued
	for _, ent := range e.batch[e.batchIdx:] {
		if !e.slots[ent.slot].canceled {
			n++
		}
	}
	return n
}

// DrainCheck returns an error when live events remain queued. Call it after
// a run that is supposed to have quiesced; a non-nil result means some
// component leaked a timer or a self-rescheduling callback past the end of
// the run.
func (e *Engine) DrainCheck() error {
	if n := e.LivePending(); n > 0 {
		return fmt.Errorf("sim: %d live event(s) still pending at %v", n, e.now)
	}
	return nil
}

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it is always a model bug, and silently clamping would mask causality
// violations.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.allocSlot(fn)
	ent := heapEntry{when: t, seq: e.seq, slot: idx}
	e.seq++
	if e.batchOn && t == e.batchTime {
		// Fast path: the engine is mid-way through firing the batch for
		// exactly this timestamp. The new event's seq is greater than every
		// entry already in the batch and no entry for batchTime remains
		// queued (the refill took the whole run), so appending preserves
		// (when, seq) order.
		e.batch = append(e.batch, ent)
	} else {
		e.queuePush(ent)
	}
	return Event{eng: e, slot: idx, gen: e.slots[idx].gen, when: t}
}

// After schedules fn d after the current time. Negative delays panic.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// SetRecorder attaches a flight recorder. The engine emits run/halt markers
// into it; recording is passive and never alters scheduling, timing or the
// RNG stream, so traced runs stay byte-identical to untraced ones. A nil
// recorder disables tracing.
func (e *Engine) SetRecorder(r *trace.Recorder) {
	e.rec = r
	e.recActor = r.RegisterActor("engine")
}

// Recorder returns the attached flight recorder (nil when tracing is off).
// Model components attached to the engine inherit it at wiring time.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Halt stops the run loop after the current event's callback returns.
func (e *Engine) Halt() {
	e.halted = true
	e.rec.Emit(trace.Event{At: int64(e.now), Kind: trace.KindEngineHalt, Actor: e.recActor, TC: -1})
}

// step fires the next event if its time is at most deadline, and reports
// whether it fired one.
func (e *Engine) step(deadline Time) bool {
	for {
		// Drain the active same-timestamp batch first.
		for e.batchIdx < len(e.batch) {
			ent := e.batch[e.batchIdx]
			if e.slots[ent.slot].canceled {
				e.batchIdx++
				e.freeSlot(ent.slot)
				continue
			}
			if ent.when > deadline {
				return false
			}
			e.batchIdx++
			fn := e.slots[ent.slot].fn
			e.freeSlot(ent.slot)
			e.now = ent.when
			e.fired++
			fn()
			return true
		}
		if e.batchOn {
			e.batch = e.batch[:0]
			e.batchIdx = 0
			e.batchOn = false
		}
		// Refill: take the entire run of minimum-timestamp entries in one
		// go, already in seq order.
		if !e.refill(deadline) {
			return false
		}
	}
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.rec.Emit(trace.Event{At: int64(e.now), Kind: trace.KindEngineRun, Actor: e.recActor,
		Val: uint64(e.Pending()), TC: -1})
	e.halted = false
	for !e.halted && e.step(math.MaxInt64) {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	e.rec.Emit(trace.Event{At: int64(e.now), Kind: trace.KindEngineRun, Actor: e.recActor,
		Val: uint64(e.Pending()), Aux: uint64(deadline), TC: -1})
	e.halted = false
	for !e.halted && e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
