package sim

// The scheduler's priority queue: a concrete 4-ary min-heap of value-typed
// entries over an engine-owned slab of event slots.
//
// Layout. Each pending event is split across two arrays:
//
//   - heapEntry carries the ordering key (when, seq) plus the slot index, and
//     lives in the heap array itself. Sift operations compare keys that are
//     already in cache — no pointer chasing, no interface calls, no
//     per-event allocation (contrast container/heap, which boxes every
//     Push/Pop operand in an interface and dispatches Less/Swap virtually).
//   - eventSlot holds the callback and liveness state (generation counter,
//     heap position, cancel flag, free-list link) in the slots slab. Slots
//     are recycled through an intrusive free list; the slab only grows to
//     the high-water mark of concurrently pending events.
//
// Every sift keeps eventSlot.pos equal to the entry's heap index, so Cancel
// removes a queued entry in O(log n) on the spot instead of leaving a dead
// entry behind until it surfaces at the root. A lossless RC run re-arms a
// 4 ms retransmit timer on every completion; lazily cancelled, those dead
// timers outnumbered live events fifty to one and every sift walked past
// them.
//
// A 4-ary heap halves the tree depth of a binary heap: pushes compare
// against one parent per level, and the wider fan-out trades a few extra
// child comparisons on pop for markedly fewer cache lines touched on the
// push-heavy schedule path (discrete-event schedulers push and pop in equal
// measure, but pushes dominate the sift work because new events usually land
// near the bottom).
//
// Ordering is (when, seq) lexicographic — identical to the old
// container/heap scheduler, so fire order (and therefore every golden,
// equivalence and traced≡untraced artifact) is bit-for-bit unchanged.

// heapEntry is one pending event's ordering key in the 4-ary heap.
type heapEntry struct {
	when Time
	seq  uint64
	slot int32
}

// entryLess orders by time, then by schedule order (FIFO among ties).
func entryLess(a, b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventSlot is the mutable state of one scheduled event. The zero slot state
// is "free"; gen increments every time the slot is released, so a stale
// Event handle (fired or cancelled, slot since reused) can be detected.
type eventSlot struct {
	fn  func()
	gen uint32
	// pos is the entry's index in the heap, or notInHeap once the entry has
	// moved into the same-timestamp batch (or the slot is free).
	pos int32
	// canceled marks a batch entry cancelled after it left the heap; the
	// batch walk reaps it. Heap entries are removed by Cancel directly.
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

// heapPush inserts an entry, sifting up against one parent per level.
func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(e.heap, ent)
	e.siftUp(len(e.heap)-1, ent)
}

// heapPop removes and returns the minimum entry.
func (e *Engine) heapPop() heapEntry {
	root := e.heap[0]
	e.heapDelete(0)
	return root
}

// heapDelete removes the entry at index i, clearing its slot's pos, and
// re-seats the displaced tail entry, up or down as its key demands.
// Removing an entry never changes the order the remaining ones pop in:
// (when, seq) is a total order.
func (e *Engine) heapDelete(i int) {
	e.slots[e.heap[i].slot].pos = notInHeap
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && entryLess(last, e.heap[(i-1)>>2]) {
		e.siftUp(i, last)
		return
	}
	e.siftDown(i, last)
}

// siftUp seats ent at index i or above, moving parents down past it.
func (e *Engine) siftUp(i int, ent heapEntry) {
	h, slots := e.heap, e.slots
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = ent
	slots[ent.slot].pos = int32(i)
}

// siftDown seats ent at index i or below, moving the least child up past it.
func (e *Engine) siftDown(i int, ent heapEntry) {
	h, slots := e.heap, e.slots
	n := len(h)
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		// Pick the least of up to four children.
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[m]) {
				m = c
			}
		}
		if !entryLess(h[m], ent) {
			break
		}
		h[i] = h[m]
		slots[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = ent
	slots[ent.slot].pos = int32(i)
}
