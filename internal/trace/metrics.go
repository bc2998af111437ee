package trace

import "math/bits"

// histBuckets is the number of power-of-two latency buckets: bucket i holds
// durations d with bits.Len64(d) == i, i.e. [2^(i-1), 2^i) picoseconds.
// 64 buckets cover the whole int64 range.
const histBuckets = 65

// Histogram is a fixed-footprint log2 latency histogram over picosecond
// durations. Recording is array arithmetic only — no allocation — so the
// metrics registry can run synchronously on the emit path.
type Histogram struct {
	counts [histBuckets]uint64
	sum    int64
	n      uint64
	max    int64
}

// Record adds one duration (negative values clamp to zero).
func (h *Histogram) Record(d int64) {
	if d < 0 {
		d = 0
	}
	h.counts[bits.Len64(uint64(d))]++
	h.sum += d
	h.n++
	if d > h.max {
		h.max = d
	}
}

// Count reports recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum reports the total of all recorded durations, picoseconds.
func (h *Histogram) Sum() int64 { return h.sum }

// Max reports the largest recorded duration, picoseconds.
func (h *Histogram) Max() int64 { return h.max }

// Mean reports the average recorded duration, picoseconds.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) at the
// histogram's bucket resolution: the top edge of the bucket where the
// cumulative count crosses q*n. Zero when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= target {
			if i == 0 {
				return 0
			}
			edge := int64(1) << uint(i)
			if edge > h.max || edge < 0 {
				return h.max
			}
			return edge
		}
	}
	return h.max
}

// Metrics is the registry derived from the event stream: every Recorder
// owns one and updates it on each Emit, so the flight-recorder ring, the
// exported trace and these tallies describe the same events. Unlike the
// ring, the registry never forgets — it keeps aggregating after the ring
// wraps. It keeps no copy of a NIC counter: those live in nic.Counters
// alone, and a counter with an event twin equals that kind's tally here.
type Metrics struct {
	// Counts tallies every event kind (index = Kind).
	Counts [NumKinds]uint64

	// Latency histograms (the features HARMONIC-style counters miss).
	QueueDelay [8]Histogram // per-TC fabric queueing delay (enqueue→dequeue)
	RetxStall  Histogram    // retransmit stall: packet age when re-sent
	ULIJitter  Histogram    // receiver inter-sample gap
	WQELatency Histogram    // verbs post→completion latency

	lastULI [256]int64 // per-actor last ULI sample time, for jitter
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// observe folds one event into the registry. Pure array updates — the emit
// path stays allocation-free.
func (m *Metrics) observe(ev Event) {
	m.Counts[ev.Kind]++
	switch ev.Kind {
	case KindTCDequeue:
		m.QueueDelay[ev.TC&7].Record(ev.Dur)
	case KindRetransmit:
		m.RetxStall.Record(ev.Dur)
	case KindCQE:
		m.WQELatency.Record(ev.Dur)
	case KindULISample:
		a := ev.Actor & 0xff
		if last := m.lastULI[a]; last != 0 {
			m.ULIJitter.Record(ev.At - last)
		}
		m.lastULI[a] = ev.At
	}
}

// deltaFrom subtracts a baseline from the cumulative histogram, yielding
// the distribution of samples recorded since the baseline was copied.
// Counts, sum and n subtract exactly (so Quantile and Mean are exact over
// the window); Max keeps the cumulative maximum, since order statistics
// cannot be un-merged — a documented approximation.
func (h Histogram) deltaFrom(base Histogram) Histogram {
	out := h
	for i := range out.counts {
		out.counts[i] -= base.counts[i]
	}
	out.sum -= base.sum
	out.n -= base.n
	return out
}

// DeltaFrom returns the increments recorded since base was copied off this
// registry (Metrics is value-copyable: `snap := *rec.Metrics()` captures a
// baseline). Experiments use it to compare an attack window's latency
// distributions against a pre-attack baseline on the same recorder.
func (m *Metrics) DeltaFrom(base *Metrics) *Metrics {
	d := &Metrics{}
	for i := range m.Counts {
		d.Counts[i] = m.Counts[i] - base.Counts[i]
	}
	for i := range m.QueueDelay {
		d.QueueDelay[i] = m.QueueDelay[i].deltaFrom(base.QueueDelay[i])
	}
	d.RetxStall = m.RetxStall.deltaFrom(base.RetxStall)
	d.ULIJitter = m.ULIJitter.deltaFrom(base.ULIJitter)
	d.WQELatency = m.WQELatency.deltaFrom(base.WQELatency)
	d.lastULI = m.lastULI
	return d
}

// Count returns the tally for one kind.
func (m *Metrics) Count(k Kind) uint64 {
	if m == nil || int(k) >= NumKinds {
		return 0
	}
	return m.Counts[k]
}

// Merge folds other into m (for aggregating per-shard registries after a
// parallel sweep). Histograms merge bucket-wise; ULI jitter state does not
// carry across shards, which is correct — shards are independent runs.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	for i := range m.Counts {
		m.Counts[i] += other.Counts[i]
	}
	for i := range m.QueueDelay {
		m.QueueDelay[i].merge(&other.QueueDelay[i])
	}
	m.RetxStall.merge(&other.RetxStall)
	m.ULIJitter.merge(&other.ULIJitter)
	m.WQELatency.merge(&other.WQELatency)
}

func (h *Histogram) merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.sum += o.sum
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}
