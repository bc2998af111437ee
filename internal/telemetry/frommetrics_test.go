package telemetry

import (
	"reflect"
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// TestFromMetricsMatchesSnap: the event-derived snapshot and the poll-path
// snapshot describe the same NIC identically on a lossless run. The recorder
// is attached to the client context only, so the registry scopes to exactly
// the NIC Snap reads.
func TestFromMetricsMatchesSnap(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	rec := trace.NewRecorder("consistency", trace.DefaultCapacity)
	c.Clients[0].SetRecorder(rec)
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := conn.QP.PostRead(uint64(i), nil, mr.Describe(uint64(i*64)), 256); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	snap := Snap(c.Eng, c.Clients[0].NIC())
	derived := FromMetrics(c.Eng.Now(), rec.Metrics())
	if derived.TxBytes == 0 || derived.RxBytes == 0 {
		t.Fatal("event-derived snapshot saw no traffic")
	}
	if !ConsistentWith(snap, derived) {
		t.Fatalf("poll path and event path disagree:\n snap    %+v\n derived %+v", snap, derived)
	}
}

// TestFromMetricsMatchesSnapLossy: the consistency holds through loss
// recovery — retransmissions, timeouts, duplicate ACKs and per-TC wire drops
// derived from events equal the NIC counters. The client's egress link gets
// the recorder too, since Snap folds that link's drop counters into the
// client's WireDropsTC.
func TestFromMetricsMatchesSnapLossy(t *testing.T) {
	c := lab.New(lab.DefaultConfig(nic.CX4))
	rec := trace.NewRecorder("consistency-lossy", trace.DefaultCapacity)
	c.Clients[0].SetRecorder(rec)
	c.Links[0].SetRecorder(rec) // client0 -> server, the client's egress
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 48)
	if err != nil {
		t.Fatal(err)
	}
	c.InjectLoss(21, 0.25)
	if err := conn.QP.SetRetry(5*sim.Microsecond, 50); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	for i := 0; i < 40; i++ {
		if err := conn.QP.PostWrite(uint64(i), data, mr.Describe(0), len(data)); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	snap := Snap(c.Eng, c.Clients[0].NIC())
	derived := FromMetrics(c.Eng.Now(), rec.Metrics())
	if derived.Retransmits == 0 {
		t.Fatal("25% loss produced no event-derived retransmissions")
	}
	var drops uint64
	for _, v := range derived.WireDropsTC {
		drops += v
	}
	if drops == 0 {
		t.Fatal("25% loss left event-derived WireDropsTC at zero")
	}
	if !ConsistentWith(snap, derived) {
		t.Fatalf("poll path and event path disagree under loss:\n snap    %+v\n derived %+v", snap, derived)
	}
}

// TestFromMetricsNil: a nil registry yields an empty snapshot (consistent
// with a freshly built NIC).
func TestFromMetricsNil(t *testing.T) {
	s := FromMetrics(0, nil)
	if !ConsistentWith(s, Snapshot{Counters: nic.Counters{RxMsgs: map[nic.Opcode]uint64{}}}) {
		t.Fatal("nil metrics should derive a zero snapshot")
	}
	if s.TxMsgs == nil || s.RxMsgs == nil || s.PerQPMsgs == nil || s.PerMRBytes == nil {
		t.Fatal("maps must be non-nil for Delta compatibility")
	}
}

// TestConsistentWithComparesEveryDerivedField: every counter FromMetrics
// fills takes part in ConsistentWith, so a mismatch in any one of them is
// reported.
func TestConsistentWithComparesEveryDerivedField(t *testing.T) {
	rec := trace.NewRecorder("fields", 1<<10)
	for tc := int8(0); tc < 8; tc++ {
		for _, k := range []trace.Kind{trace.KindArbGrant, trace.KindRxPkt, trace.KindPFCPause, trace.KindWireDrop} {
			rec.Emit(trace.Event{Kind: k, TC: tc, Val: 64})
		}
	}
	for _, k := range []trace.Kind{trace.KindRetransmit, trace.KindRtxTimeout, trace.KindNakSend,
		trace.KindDupAck, trace.KindRetryExc, trace.KindRxCorrupt} {
		rec.Emit(trace.Event{Kind: k})
	}
	want := FromMetrics(0, rec.Metrics())
	got := FromMetrics(0, rec.Metrics())
	v := reflect.ValueOf(&got.Counters).Elem()
	filled := 0
	for i := 0; i < v.NumField(); i++ {
		slot := v.Field(i)
		switch slot.Kind() {
		case reflect.Map:
			continue
		case reflect.Array:
			slot = slot.Index(7)
		}
		if slot.Uint() == 0 {
			continue // not derived from the registry
		}
		filled++
		slot.SetUint(slot.Uint() + 1)
		if ConsistentWith(got, want) {
			t.Errorf("ConsistentWith ignores %s", v.Type().Field(i).Name)
		}
		slot.SetUint(slot.Uint() - 1)
	}
	if filled != 12 {
		t.Fatalf("FromMetrics filled %d counters, want 12", filled)
	}
}
