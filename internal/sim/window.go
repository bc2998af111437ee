package sim

import (
	"fmt"
	"math"
)

// Window-execution and drain-audit primitives for the conservative parallel
// mode (internal/sim/parallel). A partitioned run executes each domain's
// engine over half-open windows [T, T+lookahead) and needs three things the
// classic Run/RunUntil API does not expose: the earliest live timestamp
// (to compute the global window start), a run bound that is exclusive and
// does not advance the clock to it (so a cross-domain message arriving
// exactly at the window end can still be scheduled with At without tripping
// the past-scheduling panic), and a pending count that ignores cancelled
// entries (the group's quiesce loop must not wait on a cancelled
// retransmit timer). Cancel removes queued entries eagerly, so only the
// tail of an active same-timestamp batch can hold a cancelled entry.

// NextEventTime reports the timestamp of the earliest live (non-cancelled)
// pending event without consuming it. ok is false when no live event is
// queued.
func (e *Engine) NextEventTime() (Time, bool) { return e.next() }

// RunBefore executes events with timestamps strictly before limit. Unlike
// RunUntil it does not advance the clock to the bound: now ends at the last
// fired event, so the caller may still schedule at any t >= now, including
// inside [now, limit). Events at or beyond limit stay queued.
func (e *Engine) RunBefore(limit Time) {
	e.halted = false
	if limit == math.MinInt64 {
		return // limit-1 would wrap around
	}
	for !e.halted && e.step(limit-1) {
	}
}

// AdvanceTo moves the clock forward to t without firing anything. It is a
// no-op when t <= now. The parallel group uses it after the window loop so
// every domain observes the same end-of-run time that a serial RunUntil
// would report (telemetry snapshots stamp At from Now).
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// LivePending counts scheduled events that have not fired and have not been
// cancelled. This is the quiesce predicate for the parallel barrier. The
// buckets hold only live entries, so just the active batch's tail is
// scanned; outside a batch LivePending equals Pending.
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
