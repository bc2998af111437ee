package trace

import "testing"

// BenchmarkEmitDisabled measures the cost compiled into every NIC hot-path
// call site when tracing is off: a nil check on the receiver. The companion
// guard TestEmitZeroAlloc asserts 0 allocs/op; this benchmark shows the
// per-op time is in the sub-nanosecond branch-predictor regime.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{At: int64(i), Kind: KindPSNSend, QPN: 65, PSN: uint32(i), TC: 0})
	}
}

// BenchmarkEmitEnabled measures the enabled path: ring store plus metrics
// fold, still allocation-free (scripts/benchguard.go gates it at 0
// allocs/op). The ring is allocated before the timer starts.
func BenchmarkEmitEnabled(b *testing.B) {
	r := NewRecorder("bench", 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{At: int64(i), Kind: KindTCDequeue, TC: int8(i & 7), Val: 64, Dur: 1000})
	}
}
