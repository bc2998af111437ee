package sim

import "testing"

// The BenchmarkEngine* family is the CI-guarded scheduler hot path: after the
// warm-up phase every schedule+fire cycle must run without allocating
// (scripts/benchguard.go gates each at 0 allocs/op). The
// closures are created before ResetTimer so the measurement isolates the
// engine's own cost: slot allocation, heap push/pop and callback dispatch.

// BenchmarkEngineScheduleFire is the minimal steady-state cycle: one
// self-rescheduling event, so the queue depth stays at 1 and every iteration
// is exactly one At + one fire.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.After(10*Nanosecond, fn)
		}
	}
	e.After(10*Nanosecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// BenchmarkEngineHotQueue keeps 1024 self-rescheduling events in flight, a
// deep queue for this simulator: a covert-channel rig keeps about 30 events
// pending (mean queue depth 29.8 in perfbench's traced covert-64b run).
// Delays spread over 1–64 ns, so refills re-file entries across several
// radix buckets.
func BenchmarkEngineHotQueue(b *testing.B) {
	const depth = 1024
	e := NewEngine(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			// Vary the delay so the queue actually reorders.
			e.After(Duration(1+(n*7)%64)*Nanosecond, fn)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.After(Duration(1+i%64)*Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// BenchmarkEngineBurst schedules same-timestamp bursts, the pattern the
// fabric TC queues generate when a window of packets drains in one
// serialization slot — the case the batch pop exists for.
func BenchmarkEngineBurst(b *testing.B) {
	const burst = 64
	e := NewEngine(1)
	n := 0
	var seed func()
	seed = func() {
		t := e.Now().Add(10 * Nanosecond)
		for i := 0; i < burst; i++ {
			n++
			if n >= b.N {
				return
			}
			e.At(t, func() {})
		}
		if n < b.N {
			e.At(t, seed)
		}
	}
	e.After(Nanosecond, seed)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// BenchmarkEngineCancel measures the arm/cancel cycle the go-back-N
// retransmit timer performs on every completion: schedule a far-future event
// and cancel it before it fires. Cancel removes the entry at once, so the
// queue never holds more than the self-rescheduling event and the armed
// timer; a lazily cancelling heap would grow by one dead entry per cycle.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine(1)
	n := 0
	depth := 0
	nop := func() {}
	var fn func()
	fn = func() {
		n++
		timer := e.After(Millisecond, nop) // armed backstop, never fires
		depth = max(depth, e.Pending())
		timer.Cancel()
		if n < b.N {
			e.After(10*Nanosecond, fn)
		}
	}
	e.After(10*Nanosecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if depth > 2 {
		b.Fatalf("queue depth reached %d, want <= 2: cancelled timers stay queued", depth)
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// BenchmarkServerService is the Server's steady-state submit → serve → done
// cycle, the path every NIC pipeline stage (DMA engine, processing units,
// TPU, egress arbiter) takes per request. Four requests circulate through a
// two-slot server, so every completion also dequeues a waiting request. The
// done callback is built before ResetTimer: what is measured is the
// server's own cost, which pooled jobs keep allocation-free (CI-guarded).
func BenchmarkServerService(b *testing.B) {
	e := NewEngine(1)
	s := NewServer(e, "bench", 2)
	n := 0
	var done func()
	done = func() {
		n++
		if n < b.N {
			s.Submit(10*Nanosecond, 0, done)
		}
	}
	for i := 0; i < 4 && i < b.N; i++ {
		s.Submit(10*Nanosecond, 0, done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if s.Served() < uint64(b.N) {
		b.Fatalf("served %d, want >= %d", s.Served(), b.N)
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}
