package nic

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
)

func TestStageRingDoorbell(t *testing.T) {
	eng, a, b, region := loopRig(t, CX5)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	for i := 1; i <= 3; i++ {
		err := a.StageSend(1, &WQE{WRID: uint64(i), Op: OpWrite, LocalData: make([]byte, 8),
			RemoteKey: 77, RemoteAddr: region.Base(), Length: 8})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(comps) != 0 {
		t.Fatalf("staged entries completed without a doorbell: %d", len(comps))
	}
	if staged, enabled := a.SQDepth(1); staged != 3 || enabled != 0 {
		t.Fatalf("SQDepth = (%d,%d), want (3,0)", staged, enabled)
	}
	if err := a.RingDoorbell(1, 2); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 2 || comps[0].WRID != 1 || comps[1].WRID != 2 {
		t.Fatalf("after Ring(2): comps %v, want WRIDs 1,2", comps)
	}
	// Over-ringing clamps to the staged count.
	if err := a.RingDoorbell(1, 10); err != nil {
		t.Fatal(err)
	}
	if staged, enabled := a.SQDepth(1); enabled > staged {
		t.Fatalf("enabled %d exceeds staged %d", enabled, staged)
	}
	eng.Run()
	if len(comps) != 3 || comps[2].WRID != 3 {
		t.Fatalf("after Ring(all): comps %v, want WRIDs 1,2,3", comps)
	}
	// A fully drained ring compacts so slot 0 maps to the next staged entry.
	if staged, enabled := a.SQDepth(1); staged != 0 || enabled != 0 {
		t.Fatalf("drained SQDepth = (%d,%d), want (0,0)", staged, enabled)
	}
}

// TestPostVsStageRingByteIdentical is the nic-level seam: a burst posted via
// the legacy one-shot PostSend and the same burst staged then enabled in one
// doorbell produce identical completion streams, timestamps included.
func TestPostVsStageRingByteIdentical(t *testing.T) {
	run := func(stageFirst bool) []Completion {
		eng, a, b, region := loopRig(t, CX5)
		var comps []Completion
		connect(t, a, b, func(c Completion) { comps = append(comps, c) })
		for i := 0; i < 4; i++ {
			wqe := &WQE{WRID: uint64(i + 1), Op: OpWrite, LocalData: make([]byte, 64*(i+1)),
				RemoteKey: 77, RemoteAddr: region.Base() + uint64(1024*i), Length: 64 * (i + 1)}
			var err error
			if stageFirst {
				err = a.StageSend(1, wqe)
			} else {
				err = a.PostSend(1, wqe)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if stageFirst {
			if err := a.RingDoorbell(1, 0); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return comps
	}
	legacy := run(false)
	staged := run(true)
	if len(legacy) != 4 || len(staged) != 4 {
		t.Fatalf("completion counts: legacy %d staged %d, want 4", len(legacy), len(staged))
	}
	for i := range legacy {
		l, s := legacy[i], staged[i]
		if l.WRID != s.WRID || l.Status != s.Status || l.Bytes != s.Bytes ||
			l.PostTime != s.PostTime || l.DoneTime != s.DoneTime {
			t.Fatalf("completion %d diverged: legacy %+v staged %+v", i, l, s)
		}
	}
}

func TestWaitEnableCrossQP(t *testing.T) {
	eng, a, b, region := loopRig(t, CX5)
	var comps1, comps3 []Completion
	connect(t, a, b, func(c Completion) { comps1 = append(comps1, c) })
	if err := a.CreateQP(3, func(c Completion) { comps3 = append(comps3, c) }, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateQP(4, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectQP(3, b, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectQP(4, a, 3); err != nil {
		t.Fatal(err)
	}
	c1 := NewCQCounter()
	if err := a.BindQPCounter(1, c1); err != nil {
		t.Fatal(err)
	}
	// QP3's chain: WAIT for one completion on QP1's counter, then WRITE.
	a.StageSend(3, &WQE{WRID: 10, Op: OpWait, WaitCQ: c1, WaitThresh: 1})
	a.StageSend(3, &WQE{WRID: 11, Op: OpWrite, LocalData: make([]byte, 16),
		RemoteKey: 77, RemoteAddr: region.Base(), Length: 16})
	if err := a.RingDoorbell(3, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps3) != 0 {
		t.Fatalf("chain ran before its WAIT was satisfied: %v", comps3)
	}
	// QP1 completes one write -> counter reaches 1 -> QP3 wakes.
	if err := a.PostSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: make([]byte, 8),
		RemoteKey: 77, RemoteAddr: region.Base() + 256, Length: 8}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c1.Count() != 1 {
		t.Fatalf("counter = %d, want 1", c1.Count())
	}
	if len(comps3) != 2 || comps3[0].WRID != 10 || comps3[0].Op != OpWait || comps3[1].WRID != 11 {
		t.Fatalf("chain completions %v, want WAIT(10) then WRITE(11)", comps3)
	}
	if a.Counters().WaitWQEs != 1 || a.Counters().WaitWakes != 1 {
		t.Fatalf("WaitWQEs=%d WaitWakes=%d, want 1,1", a.Counters().WaitWQEs, a.Counters().WaitWakes)
	}
	// ENABLE from QP1 opens QP3's next staged entry without a host doorbell.
	a.StageSend(3, &WQE{WRID: 12, Op: OpWrite, LocalData: make([]byte, 8),
		RemoteKey: 77, RemoteAddr: region.Base() + 512, Length: 8})
	if err := a.PostSend(1, &WQE{WRID: 2, Op: OpEnable, TargetQPN: 3}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps3) != 3 || comps3[2].WRID != 12 {
		t.Fatalf("ENABLE did not release the staged entry: %v", comps3)
	}
	if a.Counters().EnableWQEs != 1 {
		t.Fatalf("EnableWQEs = %d, want 1", a.Counters().EnableWQEs)
	}
}

func TestSelfModifyPatchesStagedWQE(t *testing.T) {
	eng, a, b, region := loopRig(t, CX5)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	// b needs its own path back into a: QP2 is already connected to QP1.
	win, err := host.New(host.H2).Alloc(4096, host.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMR(MRInfo{Key: 55, Base: win.Base(), Size: win.Size(), Region: win,
		PageSize: uint64(host.Page4K), RemoteWrite: true}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterSQWindow(1, 55, win.Base(), 8); err != nil {
		t.Fatal(err)
	}
	// Stage (not enable) a WRITE aimed at offset 256; the peer then rewrites
	// its RemoteAddr field through the window to offset 1024.
	payload := []byte("patchable")
	a.StageSend(1, &WQE{WRID: 1, Op: OpWrite, LocalData: payload,
		RemoteKey: 77, RemoteAddr: region.Base() + 256, Length: len(payload)})
	newAddr := make([]byte, 8)
	put64(newAddr, region.Base()+1024)
	if err := b.PostSend(2, &WQE{WRID: 9, Op: OpWrite, LocalData: newAddr,
		RemoteKey: 55, RemoteAddr: win.Base() + SQOffRemoteAddr, Length: 8}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Counters().SelfModifies != 1 {
		t.Fatalf("SelfModifies = %d, want 1", a.Counters().SelfModifies)
	}
	if err := a.RingDoorbell(1, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 1 || comps[0].WRID != 1 || comps[0].Status != StatusOK {
		t.Fatalf("patched write completions %v", comps)
	}
	got := region.Bytes()[1024 : 1024+len(payload)]
	if string(got) != string(payload) {
		t.Fatalf("payload landed at stale address: %q at 1024", got)
	}
	for _, bb := range region.Bytes()[256 : 256+len(payload)] {
		if bb != 0 {
			t.Fatalf("payload also landed at the pre-patch address")
		}
	}
}

// TestReadLocalLanding pins the READ scatter path: a READ with a LocalKey
// destination places its payload in the registered local MR, and a landing
// that covers an SQ window patches staged entries.
func TestReadLocalLanding(t *testing.T) {
	eng, a, b, region := loopRig(t, CX5)
	var comps []Completion
	connect(t, a, b, func(c Completion) { comps = append(comps, c) })
	copy(region.Bytes()[64:], "remote-bytes")
	dst, err := host.New(host.H2).Alloc(4096, host.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterMR(MRInfo{Key: 10, Base: dst.Base(), Size: dst.Size(), Region: dst,
		PageSize: uint64(host.Page4K)}); err != nil {
		t.Fatal(err)
	}
	err = a.PostSend(1, &WQE{WRID: 1, Op: OpRead,
		RemoteKey: 77, RemoteAddr: region.Base() + 64, Length: 12,
		LocalKey: 10, LocalAddr: dst.Base() + 128})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(comps) != 1 || comps[0].Status != StatusOK {
		t.Fatalf("read completions %v", comps)
	}
	if got := string(dst.Bytes()[128:140]); got != "remote-bytes" {
		t.Fatalf("local landing = %q, want %q", got, "remote-bytes")
	}
}
