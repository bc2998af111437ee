package nic

import (
	"testing"

	"github.com/thu-has/ragnar/internal/host"
)

// FuzzWQEChain drives random WAIT/ENABLE/self-modify chains on two QPs
// against a pure-Go fixpoint model of the send-queue state machine and
// checks three invariants:
//
//   - exactly-once completions: every WRID the model retires completes
//     exactly once, and nothing else completes;
//   - no spurious deadlock: a chain blocks if and only if the model blocks
//     (an armed WAIT whose threshold is unreachable);
//   - the doorbell cursor never exceeds the staged count.
//
// The run is two-phase so the oracle stays sound: phase 1 stages every
// entry and lands every self-modifying patch (nothing is enabled yet, so
// all patches apply and the model knows the final WQE fields); phase 2
// applies the ring ops. Within phase 2 the engine's interleaving is
// arbitrary but counters are monotone, so the drained state must equal the
// model's fixpoint.
func FuzzWQEChain(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 4, 0, 0})
	f.Add([]byte{1, 0, 3, 0, 0, 8, 2, 1, 0, 4, 0, 0, 4, 1, 0})
	f.Add([]byte{2, 0, 1, 1, 1, 2, 3, 2, 3, 4, 1, 5, 4, 0, 5})
	f.Add([]byte{3, 0, 2, 1, 0, 7, 0, 1, 4, 3, 7, 4, 4, 0, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 96 {
			input = input[:96]
		}
		const (
			qpA     = uint32(11)
			qpB     = uint32(12)
			slots   = 8
			winKey  = uint32(55)
			dataKey = uint32(77)
		)
		eng, a, b, region := loopRig(t, CX5)
		completions := map[uint64]int{}
		sink := func(c Completion) { completions[c.WRID]++ }
		for _, q := range []uint32{qpA, qpB} {
			if err := a.CreateQP(q, sink, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.CreateQP(q+10, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := a.ConnectQP(q, b, q+10); err != nil {
				t.Fatal(err)
			}
			if err := b.ConnectQP(q+10, a, q); err != nil {
				t.Fatal(err)
			}
		}
		counters := [2]*CQCounter{NewCQCounter(), NewCQCounter()}
		counterQP := [2]uint32{qpA, qpB}
		a.BindQPCounter(qpA, counters[0])
		a.BindQPCounter(qpB, counters[1])
		win, err := host.New(host.H2).Alloc(slots*SQSlotBytes, host.Page4K)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RegisterMR(MRInfo{Key: winKey, Base: win.Base(), Size: win.Size(),
			Region: win, PageSize: uint64(host.Page4K), RemoteWrite: true}); err != nil {
			t.Fatal(err)
		}
		if err := a.RegisterSQWindow(qpA, winKey, win.Base(), slots); err != nil {
			t.Fatal(err)
		}

		// Model state: the final (post-patch) entry list per QP.
		type mEntry struct {
			op      Opcode
			wrid    uint64
			counter int // WAIT: index into counters
			thresh  uint64
			target  uint32 // ENABLE
			count   int    // ENABLE
		}
		model := map[uint32][]mEntry{}
		type ringOp struct {
			qpn uint32
			k   int
		}
		var rings []ringOp
		type patchOp struct {
			slot int
			val  uint64
		}
		var patches []patchOp
		nextWRID := uint64(1)
		patchWRID := uint64(1000)

		// Phase 1: stage chains and land patches.
		for i := 0; i+2 < len(input); i += 3 {
			op, a1, a2 := input[i], input[i+1], input[i+2]
			qpn := qpA + uint32(a1%2)
			switch op % 5 {
			case 0: // WRITE
				if len(model[qpn]) >= slots {
					continue
				}
				wrid := nextWRID
				nextWRID++
				length := 8 + int(a2%32)*8
				if err := a.StageSend(qpn, &WQE{WRID: wrid, Op: OpWrite,
					LocalData: make([]byte, length), RemoteKey: dataKey,
					RemoteAddr: region.Base() + uint64(a2)*64, Length: length}); err != nil {
					t.Fatal(err)
				}
				model[qpn] = append(model[qpn], mEntry{op: OpWrite, wrid: wrid})
			case 1: // WAIT
				if len(model[qpn]) >= slots {
					continue
				}
				wrid := nextWRID
				nextWRID++
				ci := int(a2 % 2)
				thresh := uint64(a2 % 5)
				if err := a.StageSend(qpn, &WQE{WRID: wrid, Op: OpWait,
					WaitCQ: counters[ci], WaitThresh: thresh}); err != nil {
					t.Fatal(err)
				}
				model[qpn] = append(model[qpn], mEntry{op: OpWait, wrid: wrid, counter: ci, thresh: thresh})
			case 2: // ENABLE
				if len(model[qpn]) >= slots {
					continue
				}
				wrid := nextWRID
				nextWRID++
				target := qpA + uint32(a2%2)
				count := int(a2>>2) % 4
				if err := a.StageSend(qpn, &WQE{WRID: wrid, Op: OpEnable,
					TargetQPN: target, EnableCount: count}); err != nil {
					t.Fatal(err)
				}
				model[qpn] = append(model[qpn], mEntry{op: OpEnable, wrid: wrid, target: target, count: count})
			case 3: // self-modify patch of a slot's WAIT threshold on qpA
				slot := int(a1 % slots)
				val := uint64(a2 % 5)
				buf := make([]byte, 8)
				put64(buf, val)
				if err := b.PostSend(qpA+10, &WQE{WRID: patchWRID, Op: OpWrite,
					LocalData: buf, RemoteKey: winKey,
					RemoteAddr: win.Base() + uint64(slot)*SQSlotBytes + SQOffWaitThresh,
					Length:     8}); err != nil {
					t.Fatal(err)
				}
				patchWRID++
				patches = append(patches, patchOp{slot: slot, val: val})
			case 4: // phase-2 ring op
				rings = append(rings, ringOp{qpn: qpn, k: int(a2 % 6)})
			}
		}
		eng.Run() // all patches land while nothing is enabled
		// Patches land after every entry is staged (they are RDMA writes,
		// posted at t=0 but placed during the run), in posting order.
		for _, p := range patches {
			if p.slot < len(model[qpA]) {
				model[qpA][p.slot].thresh = p.val
			}
		}

		// Phase 2: apply ring ops on the device.
		for _, r := range rings {
			if err := a.RingDoorbell(r.qpn, r.k); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			for _, q := range []uint32{qpA, qpB} {
				if staged, enabled := a.SQDepth(q); enabled > staged {
					t.Fatalf("QP %d: doorbell %d exceeds staged %d", q, enabled, staged)
				}
			}
		}
		eng.Run()

		// Model fixpoint over the same ring ops.
		head := map[uint32]int{}
		enabled := map[uint32]int{}
		done := map[uint32]uint64{} // completions per QP (== counter value)
		expect := map[uint64]bool{}
		ring := func(qpn uint32, k int) {
			if k <= 0 {
				enabled[qpn] = len(model[qpn])
			} else if enabled[qpn] += k; enabled[qpn] > len(model[qpn]) {
				enabled[qpn] = len(model[qpn])
			}
		}
		for _, r := range rings {
			ring(r.qpn, r.k)
		}
		for progress := true; progress; {
			progress = false
			for _, q := range []uint32{qpA, qpB} {
				for head[q] < enabled[q] {
					e := model[q][head[q]]
					if e.op == OpWait && done[counterQP[e.counter]] < e.thresh {
						break
					}
					head[q]++
					done[q]++
					expect[e.wrid] = true
					progress = true
					if e.op == OpEnable {
						ring(e.target, e.count)
					}
				}
			}
		}

		// Compare: every model-retired WRID completed exactly once, nothing
		// extra (patch writes from b carry WRIDs >= 1000 and no sink).
		for wrid := range expect {
			if completions[wrid] != 1 {
				t.Fatalf("WRID %d completed %d times, want exactly once", wrid, completions[wrid])
			}
		}
		for wrid, n := range completions {
			if !expect[wrid] {
				t.Fatalf("WRID %d completed %d times but the model says it must block", wrid, n)
			}
		}
		if c0, c1 := counters[0].Count(), counters[1].Count(); c0 != done[qpA] || c1 != done[qpB] {
			t.Fatalf("consumer counters (%d,%d) disagree with model (%d,%d)",
				c0, c1, done[qpA], done[qpB])
		}
	})
}
