package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The scheduler's priority queue: a radix heap of value-typed entries over
// an engine-owned slab of event slots.
//
// Layout. Each pending event is split across two arrays:
//
//   - heapEntry carries the ordering key (when, seq) plus the slot index, and
//     lives in one of the radix buckets. Filing and re-filing compare keys
//     that are already in cache — no pointer chasing, no interface calls, no
//     per-event allocation.
//   - eventSlot holds the callback and liveness state (generation counter,
//     bucket and position, cancel flag, free-list link) in the slots slab.
//     Slots are recycled through an intrusive free list; the slab only grows
//     to the high-water mark of concurrently pending events.
//
// Radix heap. Event times never fall below last, the time of the latest
// refill: scheduling before now panics, and now >= last. An entry at time t
// lives in bucket bits.Len64(t ^ last): bucket 0 holds the entries at
// exactly last, bucket k > 0 those whose time first differs from last at
// bit k-1. Every entry of bucket k lies below every entry of bucket k+1, so
// the earliest pending time is in the lowest non-empty bucket. A refill
// moves last to that bucket's least time and re-files its entries; each
// lands in a lower bucket, and the ones at the new last become the
// same-timestamp batch. Push is O(1), and so is cancel outside bucket 0;
// an entry is re-filed at most once per bit of its distance from last, so
// a pop costs amortised O(log Δt) where a comparison heap pays O(log n)
// sifts through the whole queue.
//
// Every move keeps eventSlot.bucket and eventSlot.pos naming the entry's
// place, so Cancel removes a queued entry on the spot instead of leaving a
// dead entry behind: it swap-removes, except in bucket 0, which keeps its
// entries in seq order because it is the next batch.
//
// Ordering is (when, seq) lexicographic — the order of the container/heap
// reference the tests replay schedules against — so fire order (and
// therefore every golden, equivalence and traced≡untraced artifact) does
// not depend on the queue's layout.

// heapEntry is one pending event's ordering key.
type heapEntry struct {
	when Time
	seq  uint64
	slot int32
}

// numBuckets covers every distance bits.Len64 can report between two
// non-negative times.
const numBuckets = 64

// eventSlot is the mutable state of one scheduled event. The zero slot state
// is "free"; gen increments every time the slot is released, so a stale
// Event handle (fired or cancelled, slot since reused) can be detected.
type eventSlot struct {
	fn  func()
	gen uint32
	// pos is the entry's index in its bucket, or notInHeap once the entry
	// has moved into the same-timestamp batch (or the slot is free).
	pos    int32
	bucket uint8
	// canceled marks a batch entry cancelled after it left the buckets; the
	// batch walk reaps it. Queued entries are removed by Cancel directly.
	canceled bool
	next     int32 // free-list link, -1 terminates
}

const (
	noSlot    int32 = -1
	notInHeap int32 = -1
)

// allocSlot takes a slot from the free list (or grows the slab) and arms it
// with fn. It returns the slot index; the slot's current gen validates
// handles.
func (e *Engine) allocSlot(fn func()) int32 {
	if e.free != noSlot {
		idx := e.free
		s := &e.slots[idx]
		e.free = s.next
		s.fn = fn
		s.canceled = false
		s.next = noSlot
		return idx
	}
	e.slots = append(e.slots, eventSlot{fn: fn, pos: notInHeap, next: noSlot})
	return int32(len(e.slots) - 1)
}

// freeSlot releases a slot back to the free list. Clearing fn here is load
// bearing: it is what makes a fired (or cancelled) callback — and every rig
// object the closure captured — unreachable, so long sweeps do not pin dead
// rigs in memory. Bumping gen invalidates every outstanding handle to the
// slot's previous occupant.
func (e *Engine) freeSlot(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.canceled = false
	s.gen++
	s.next = e.free
	e.free = idx
}

// live reports whether a handle (slot, gen) still names a pending event.
func (e *Engine) live(slot int32, gen uint32) bool {
	return slot >= 0 && int(slot) < len(e.slots) && e.slots[slot].gen == gen
}

// file puts ent in the bucket its distance from last selects.
func (e *Engine) file(ent heapEntry) {
	k := bits.Len64(uint64(ent.when ^ e.last))
	b := e.buckets[k]
	s := &e.slots[ent.slot]
	s.bucket, s.pos = uint8(k), int32(len(b))
	e.buckets[k] = append(b, ent)
	e.nonEmpty |= 1 << k
}

// queuePush inserts a new entry.
func (e *Engine) queuePush(ent heapEntry) {
	e.file(ent)
	e.queued++
}

// queueDelete removes the queued entry held by slot s and clears its pos.
// Removing an entry never changes the order the remaining ones fire in:
// (when, seq) is a total order, and bucket 0 closes the gap in place.
func (e *Engine) queueDelete(s *eventSlot) {
	k, i := s.bucket, int(s.pos)
	b := e.buckets[k]
	n := len(b) - 1
	if k == 0 {
		copy(b[i:], b[i+1:])
		for j := i; j < n; j++ {
			e.slots[b[j].slot].pos = int32(j)
		}
	} else if i != n {
		b[i] = b[n]
		e.slots[b[i].slot].pos = int32(i)
	}
	e.buckets[k] = b[:n]
	if n == 0 {
		e.nonEmpty &^= 1 << k
	}
	s.pos = notInHeap
	e.queued--
}

func minWhen(b []heapEntry) Time {
	t := b[0].when
	for _, ent := range b[1:] {
		if ent.when < t {
			t = ent.when
		}
	}
	return t
}

// refill moves the earliest run of equal-time entries, in seq order, into
// the empty batch — provided its time is at most deadline. It reports
// whether it did; when it did not, last is unchanged, so a caller may still
// schedule anywhere at or after now.
func (e *Engine) refill(deadline Time) bool {
	if e.nonEmpty == 0 {
		return false
	}
	k := bits.TrailingZeros64(e.nonEmpty)
	b := e.buckets[k]
	if k == 0 {
		if e.last > deadline {
			return false
		}
		// Entries pushed at exactly last arrive in seq order, and
		// cancels keep that order.
		for _, ent := range b {
			e.slots[ent.slot].pos = notInHeap
		}
		e.batch, e.buckets[0] = b, e.batch[:0]
	} else if len(b) == 1 {
		// A lone entry is the whole run: no re-file.
		ent := b[0]
		if ent.when > deadline {
			return false
		}
		e.last = ent.when
		e.buckets[k] = b[:0]
		e.slots[ent.slot].pos = notInHeap
		e.batch = append(e.batch, ent)
	} else {
		t := minWhen(b)
		if t > deadline {
			return false
		}
		e.last = t
		e.buckets[k] = b[:0]
		// Re-file the bucket below k; its entries at the new last form the
		// batch. Swap-removes may have broken their seq order.
		sorted := true
		for _, ent := range b {
			if ent.when != t {
				e.file(ent)
				continue
			}
			e.slots[ent.slot].pos = notInHeap
			if n := len(e.batch); n > 0 && e.batch[n-1].seq > ent.seq {
				sorted = false
			}
			e.batch = append(e.batch, ent)
		}
		if !sorted {
			slices.SortFunc(e.batch, func(a, b heapEntry) int { return cmp.Compare(a.seq, b.seq) })
		}
	}
	e.nonEmpty &^= 1 << k
	e.queued -= len(e.batch)
	e.batchIdx = 0
	e.batchOn = true
	e.batchTime = e.last
	return true
}
