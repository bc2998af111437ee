package telemetry

import (
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// FromMetrics derives a counter snapshot from a flight recorder's unified
// metrics registry — the same event stream that feeds the trace export, so
// the two views can never disagree. The registry covers exactly the NICs and
// links whose recorders were attached: attach to one context to get that
// NIC's ethtool view, to a whole cluster to get the fabric-wide aggregate.
//
// The Grain-II/III maps (TxMsgs, RxMsgs, PerQPMsgs, PerMRBytes) stay empty:
// the registry is fixed-size arrays so the emit path never allocates, and
// those grains remain the NIC poll path's job (Snap). ConsistentWith checks
// the shared fields.
func FromMetrics(at sim.Time, m *trace.Metrics) Snapshot {
	s := Snapshot{At: at, Counters: nic.Counters{
		TxMsgs:     map[nic.Opcode]uint64{},
		RxMsgs:     map[nic.Opcode]uint64{},
		PerQPMsgs:  map[uint32]uint64{},
		PerMRBytes: map[uint32]uint64{},
	}}
	if m == nil {
		return s
	}
	s.TxBytes = m.TxBytes
	s.RxBytes = m.RxBytes
	s.TxBytesTC = m.TxBytesTC
	s.RxBytesTC = m.RxBytesTC
	s.PFCPauses = m.PFCPauses
	s.WireDropsTC = m.WireDropsTC
	s.Retransmits = m.Count(trace.KindRetransmit)
	s.Timeouts = m.Count(trace.KindRtxTimeout)
	s.SeqNaks = m.Count(trace.KindNakSend)
	s.DupAcks = m.Count(trace.KindDupAck)
	s.RetryExc = m.Count(trace.KindRetryExc)
	s.RxCorrupt = m.Count(trace.KindRxCorrupt)
	return s
}

// ConsistentWith reports whether two snapshots agree on every field
// FromMetrics fills (bytes, per-TC volume, PFC, loss and transport
// observables). It is the single-source-of-truth check: a poll-path Snap and
// an event-derived FromMetrics over the same NIC must satisfy it.
func ConsistentWith(a, b Snapshot) bool {
	return a.TxBytes == b.TxBytes && a.RxBytes == b.RxBytes &&
		a.TxBytesTC == b.TxBytesTC && a.RxBytesTC == b.RxBytesTC &&
		a.PFCPauses == b.PFCPauses && a.WireDropsTC == b.WireDropsTC &&
		a.Retransmits == b.Retransmits && a.Timeouts == b.Timeouts &&
		a.SeqNaks == b.SeqNaks && a.DupAcks == b.DupAcks &&
		a.RetryExc == b.RetryExc && a.RxCorrupt == b.RxCorrupt
}
