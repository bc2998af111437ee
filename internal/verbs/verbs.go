// Package verbs is a from-scratch RDMA verbs layer over the simulated NIC
// and fabric: protection domains, memory regions with rkeys, reliable-
// connected queue pairs, completion queues and the post/poll interface —
// the same surface libibverbs gives the paper's attack code. Everything is
// single-threaded inside the simulation engine, mirroring the paper's
// single-threaded microbenchmarks.
package verbs

import (
	"errors"
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// Access flags for memory registration (subset of IBV_ACCESS_*).
type Access uint32

// Access permissions.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	AccessRemoteAtomic
)

// Context is a device context: one host plus its RNIC.
type Context struct {
	Name string
	eng  *sim.Engine
	hst  *host.Host
	dev  *nic.NIC

	nextPD  uint32
	nextKey uint32
	nextQPN uint32

	rec      *trace.Recorder
	recActor uint16
}

// NewContext opens a device context on a fresh host with the given NIC
// profile.
func NewContext(eng *sim.Engine, name string, hostCfg host.Config, prof nic.Profile) *Context {
	h := host.New(hostCfg)
	return &Context{
		Name: name,
		eng:  eng,
		hst:  h,
		dev:  nic.New(eng, name+"/nic", prof, h),
		// Key/QPN namespaces start at generation-looking values, as real
		// stacks do.
		nextKey: 0x1000,
		nextQPN: 0x40,
	}
}

// Engine returns the simulation engine the context runs on.
func (c *Context) Engine() *sim.Engine { return c.eng }

// Host returns the underlying host model.
func (c *Context) Host() *host.Host { return c.hst }

// NIC returns the underlying adapter model (reverse-engineering code
// inspects its TPU and counters).
func (c *Context) NIC() *nic.NIC { return c.dev }

// SetRecorder attaches a flight recorder to the context and its NIC: the
// verbs layer emits WQE post events and post→completion spans, the NIC its
// datapath events. Nil disables tracing.
func (c *Context) SetRecorder(r *trace.Recorder) {
	c.rec = r
	c.recActor = r.RegisterActor(c.Name + "/verbs")
	c.dev.SetRecorder(r)
}

// PD is a protection domain.
type PD struct {
	ctx *Context
	id  uint32
}

// AllocPD allocates a protection domain.
func (c *Context) AllocPD() *PD {
	c.nextPD++
	return &PD{ctx: c, id: c.nextPD}
}

// MR is a registered memory region.
type MR struct {
	pd     *PD
	region *host.Region
	rkey   uint32
	lkey   uint32
	access Access
}

// RegMR allocates size bytes on the given page size and registers them for
// RDMA access. The paper's Grain-III/IV setup uses 2 MB huge pages.
func (pd *PD) RegMR(size uint64, page host.PageSize, access Access) (*MR, error) {
	region, err := pd.ctx.hst.Alloc(size, page)
	if err != nil {
		return nil, fmt.Errorf("verbs: %w", err)
	}
	pd.ctx.nextKey++
	mr := &MR{pd: pd, region: region, rkey: pd.ctx.nextKey, lkey: pd.ctx.nextKey, access: access}
	err = pd.ctx.dev.RegisterMR(nic.MRInfo{
		Key:         mr.rkey,
		Base:        region.Base(),
		Size:        region.Size(),
		Region:      region,
		PageSize:    uint64(page),
		RemoteRead:  access&AccessRemoteRead != 0,
		RemoteWrite: access&AccessRemoteWrite != 0,
		Atomic:      access&AccessRemoteAtomic != 0,
	})
	if err != nil {
		pd.ctx.hst.Free(region)
		return nil, err
	}
	return mr, nil
}

// DeregMR unregisters and unpins the region.
func (mr *MR) DeregMR() {
	mr.pd.ctx.dev.DeregisterMR(mr.rkey)
	mr.pd.ctx.hst.Free(mr.region)
}

// RKey returns the remote access key.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Base returns the region's base address (exchanged out of band, as real
// RDMA applications do).
func (mr *MR) Base() uint64 { return mr.region.Base() }

// Size returns the registered size.
func (mr *MR) Size() uint64 { return mr.region.Size() }

// Addr returns the address at the given offset into the MR.
func (mr *MR) Addr(offset uint64) uint64 { return mr.region.Base() + offset }

// Bytes exposes the backing memory for local access, backing the whole
// region (see host.Region).
func (mr *MR) Bytes() []byte { return mr.region.Bytes() }

// Span backs the MR up to off+n and returns those n bytes for local access,
// leaving the rest unbacked. The slice aliases the backing only until the
// backing grows (see host.Region.Span), so take it where the bytes are used.
func (mr *MR) Span(off, n uint64) []byte { return mr.region.Span(off, n) }

// RemoteBuf names a remote target: rkey plus address, the pair a client
// learns during connection setup.
type RemoteBuf struct {
	RKey uint32
	Addr uint64
}

// At returns the remote buffer shifted by off bytes.
func (r RemoteBuf) At(off uint64) RemoteBuf { return RemoteBuf{RKey: r.RKey, Addr: r.Addr + off} }

// Describe returns the MR's remote handle at the given offset.
func (mr *MR) Describe(offset uint64) RemoteBuf {
	return RemoteBuf{RKey: mr.rkey, Addr: mr.region.Base() + offset}
}

// CQ is a completion queue.
type CQ struct {
	ctx     *Context
	entries []nic.Completion
	cap     int
	// cnt is the CQ's consumer index: the NIC bumps it on every completion
	// delivered to a QP bound to this CQ, and WAIT WQEs block on it — the
	// cross-QP coupling point of the RedN chain model.
	cnt *nic.CQCounter
	// Notify, when set, is an armed consumer: every completion is handed
	// to it directly instead of queueing — the simulation analogue of a
	// completion-channel handler that always keeps up, letting measurement
	// loops react without busy-polling virtual time. Only unarmed
	// (polling-mode) CQs buffer entries and can therefore overrun.
	Notify func(nic.Completion)
	// epochs counts the measurement runs tagged on this CQ (NextEpoch).
	epochs uint64
}

// CreateCQ creates a completion queue holding up to capacity entries. A
// push onto a full CQ is an overrun: the new CQE is dropped and counted in
// the NIC's CQOverruns counter — the simulation analogue of
// IBV_EVENT_CQ_ERR. The WQE itself still retires on the NIC, so the QP
// keeps flowing; only the notification is lost, exactly the failure mode
// a CQ-exhaustion aggressor induces for its victims.
func (c *Context) CreateCQ(capacity int) *CQ {
	if capacity <= 0 {
		capacity = 4096
	}
	return &CQ{ctx: c, cap: capacity, cnt: nic.NewCQCounter()}
}

// NextEpoch returns a fresh run tag for this CQ: 1, 2, 3, ... A measurement
// loop puts it in the high half of its WRIDs so a late completion from an
// earlier run on the same CQ is never taken for its own. The tag depends
// only on this CQ's history, so WRIDs repeat exactly from run to run.
func (q *CQ) NextEpoch() uint64 {
	q.epochs++
	return q.epochs
}

// ConsumerIndex returns the number of completions delivered on this CQ so
// far — the counter WAIT WQEs compare their threshold against.
func (q *CQ) ConsumerIndex() uint64 { return q.cnt.Count() }

func (q *CQ) push(comp nic.Completion) {
	q.ctx.rec.Emit(trace.Event{At: int64(comp.DoneTime), Kind: trace.KindWQESpan,
		Actor: q.ctx.recActor, QPN: comp.QPN, Val: comp.WRID, Aux: uint64(comp.Status),
		Dur: int64(comp.DoneTime.Sub(comp.PostTime)), TC: -1})
	if q.Notify != nil {
		q.Notify(comp)
		return
	}
	if len(q.entries) >= q.cap {
		q.ctx.dev.NoteCQOverrun()
		return
	}
	q.entries = append(q.entries, comp)
}

// Poll removes and returns up to n completions. It allocates a fresh slice
// per call; hot measurement loops use PollInto instead.
func (q *CQ) Poll(n int) []nic.Completion {
	if n > len(q.entries) {
		n = len(q.entries)
	}
	out := append([]nic.Completion(nil), q.entries[:n]...)
	q.entries = q.entries[n:]
	return out
}

// PollInto drains up to len(dst) completions into dst and returns how many
// were copied. The remaining entries are shifted down in place, so a
// steady-state poll loop never allocates (benchmark-guarded at 0 allocs/op
// by BenchmarkCQPollInto).
func (q *CQ) PollInto(dst []nic.Completion) int {
	n := copy(dst, q.entries)
	if n == 0 {
		return 0
	}
	rem := copy(q.entries, q.entries[n:])
	q.entries = q.entries[:rem]
	return n
}

// Len reports queued completions.
func (q *CQ) Len() int { return len(q.entries) }

// Await runs the context's engine until the completion of wrid arrives on
// q and returns it; ok is false when the engine ran out of events first.
// Other completions arriving meanwhile are dropped, and Notify is restored
// on return. It is the blocking verb of a ULP that issues one request at a
// time.
func (q *CQ) Await(wrid uint64) (c nic.Completion, ok bool) {
	prev := q.Notify
	defer func() { q.Notify = prev }()
	eng := q.ctx.eng
	q.Notify = func(got nic.Completion) {
		if got.WRID == wrid {
			c, ok = got, true
			eng.Halt()
		}
	}
	eng.Run()
	return c, ok
}

// QPCap configures queue pair limits.
type QPCap struct {
	MaxSendWR int // send queue depth (the paper's len_sq,max knob)
}

// QP is a reliable-connected queue pair.
type QP struct {
	ctx      *Context
	qpn      uint32
	pd       *PD
	sendCQ   *CQ
	caps     QPCap
	inFlight int
	tc       int
	// OnRecv, when set, receives inbound SEND/WRITE events on this QP.
	OnRecv func(nic.RecvEvent)
	peer   *QP
}

// CreateQP creates a queue pair bound to a send CQ.
func (c *Context) CreateQP(pd *PD, sendCQ *CQ, caps QPCap) (*QP, error) {
	if caps.MaxSendWR <= 0 {
		caps.MaxSendWR = 128
	}
	c.nextQPN++
	qp := &QP{ctx: c, qpn: c.nextQPN, pd: pd, sendCQ: sendCQ, caps: caps}
	err := c.dev.CreateQP(qp.qpn,
		func(comp nic.Completion) {
			qp.inFlight--
			sendCQ.push(comp)
		},
		func(ev nic.RecvEvent) {
			if qp.OnRecv != nil {
				qp.OnRecv(ev)
			}
		})
	if err != nil {
		return nil, err
	}
	// Bind the send CQ's consumer index so cross-QP WAITs can observe this
	// QP's completions.
	if err := c.dev.BindQPCounter(qp.qpn, sendCQ.cnt); err != nil {
		return nil, err
	}
	return qp, nil
}

// QPN returns the queue pair number.
func (qp *QP) QPN() uint32 { return qp.qpn }

// SetTC sets the traffic class (802.1p priority) for subsequent posts.
func (qp *QP) SetTC(tc int) { qp.tc = tc }

// ErrSQFull is returned when the send queue is at MaxSendWR.
var ErrSQFull = errors.New("verbs: send queue full")

// WCRetryExcErr mirrors IBV_WC_RETRY_EXC_ERR: the transport exhausted its
// retry budget and the WQE completed in error; the QP is in the error state.
const WCRetryExcErr = nic.StatusRetryExcErr

// SetRetry tunes the QP's transport retry behaviour — the simulator's
// ibv_modify_qp timeout/retry_cnt. Zero values keep the NIC defaults.
func (qp *QP) SetRetry(timeout sim.Duration, limit int) error {
	return qp.ctx.dev.SetQPRetry(qp.qpn, timeout, limit)
}

// Outstanding reports WQEs posted but not yet completed — the paper's
// len_sq for the ULI computation.
func (qp *QP) Outstanding() int { return qp.inFlight }

// post validates and submits a WQE.
func (qp *QP) post(wqe *nic.WQE) error {
	if qp.peer == nil {
		return errors.New("verbs: QP not connected")
	}
	if qp.inFlight >= qp.caps.MaxSendWR {
		return ErrSQFull
	}
	wqe.TC = qp.tc
	if err := qp.ctx.dev.PostSend(qp.qpn, wqe); err != nil {
		return err
	}
	qp.ctx.rec.Emit(trace.Event{At: int64(qp.ctx.eng.Now()), Kind: trace.KindWQEPost,
		Actor: qp.ctx.recActor, QPN: qp.qpn, Val: wqe.WRID, TC: int8(qp.tc)})
	qp.inFlight++
	return nil
}

// PostRead posts an RDMA Read of length bytes from the remote buffer into
// local (which may be nil when the caller only measures timing).
func (qp *QP) PostRead(wrid uint64, local []byte, remote RemoteBuf, length int) error {
	return qp.post(&nic.WQE{
		WRID: wrid, Op: nic.OpRead, LocalData: local,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: length,
	})
}

// PostWrite posts an RDMA Write of data to the remote buffer.
func (qp *QP) PostWrite(wrid uint64, data []byte, remote RemoteBuf, length int) error {
	return qp.post(&nic.WQE{
		WRID: wrid, Op: nic.OpWrite, LocalData: data,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: length,
	})
}

// PostSend posts a two-sided SEND carrying data.
func (qp *QP) PostSend(wrid uint64, data []byte) error {
	return qp.post(&nic.WQE{WRID: wrid, Op: nic.OpSend, LocalData: data, Length: len(data)})
}

// PostAtomicFAA posts a fetch-and-add of delta on the remote 8-byte word.
func (qp *QP) PostAtomicFAA(wrid uint64, remote RemoteBuf, delta uint64) error {
	return qp.post(&nic.WQE{
		WRID: wrid, Op: nic.OpAtomicFAA,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: 8, CompareAdd: delta,
	})
}

// PostAtomicCAS posts a compare-and-swap on the remote 8-byte word.
func (qp *QP) PostAtomicCAS(wrid uint64, remote RemoteBuf, compare, swap uint64) error {
	return qp.post(&nic.WQE{
		WRID: wrid, Op: nic.OpAtomicCAS,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: 8,
		CompareAdd: compare, Swap: swap,
	})
}

// PostRecv queues a receive buffer for inbound SENDs.
func (qp *QP) PostRecv(buf []byte) error {
	return qp.ctx.dev.PostRecv(qp.qpn, buf)
}

// --- Staged posting: the post ≠ enable half of the send-queue state
// machine. Stage* appends a WQE to the SQ ring without ringing the
// doorbell; Ring enables staged entries. Staged-but-unenabled entries are
// rewritable through an ExposeSQ window (WQE self-modification). ---

// stage validates a WQE and appends it to the send queue without enabling
// it. Every staged entry eventually retires with exactly one CQE (once
// enabled), so it occupies a MaxSendWR slot from staging on.
func (qp *QP) stage(wqe *nic.WQE) error {
	if qp.inFlight >= qp.caps.MaxSendWR {
		return ErrSQFull
	}
	wqe.TC = qp.tc
	if err := qp.ctx.dev.StageSend(qp.qpn, wqe); err != nil {
		return err
	}
	qp.ctx.rec.Emit(trace.Event{At: int64(qp.ctx.eng.Now()), Kind: trace.KindWQEPost,
		Actor: qp.ctx.recActor, QPN: qp.qpn, Val: wqe.WRID, TC: int8(qp.tc)})
	qp.inFlight++
	return nil
}

// Ring advances the QP's doorbell over k staged entries (k <= 0 enables
// everything staged).
func (qp *QP) Ring(k int) error {
	return qp.ctx.dev.RingDoorbell(qp.qpn, k)
}

// StageWrite stages an RDMA Write without enabling it.
func (qp *QP) StageWrite(wrid uint64, data []byte, remote RemoteBuf, length int) error {
	if qp.peer == nil {
		return errors.New("verbs: QP not connected")
	}
	return qp.stage(&nic.WQE{
		WRID: wrid, Op: nic.OpWrite, LocalData: data,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: length,
	})
}

// StageRead stages an RDMA Read without enabling it.
func (qp *QP) StageRead(wrid uint64, local []byte, remote RemoteBuf, length int) error {
	if qp.peer == nil {
		return errors.New("verbs: QP not connected")
	}
	return qp.stage(&nic.WQE{
		WRID: wrid, Op: nic.OpRead, LocalData: local,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: length,
	})
}

// StageReadInto stages an RDMA Read whose payload lands inside a local
// registered MR at localOff — the self-modification source: when the target
// range lies in an ExposeSQ window, the landing rewrites the staged WQEs it
// covers before their doorbell.
func (qp *QP) StageReadInto(wrid uint64, local *MR, localOff uint64, remote RemoteBuf, length int) error {
	if qp.peer == nil {
		return errors.New("verbs: QP not connected")
	}
	return qp.stage(&nic.WQE{
		WRID: wrid, Op: nic.OpRead,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: length,
		LocalKey: local.lkey, LocalAddr: local.Base() + localOff,
	})
}

// StageCAS stages a compare-and-swap without enabling it.
func (qp *QP) StageCAS(wrid uint64, remote RemoteBuf, compare, swap uint64) error {
	if qp.peer == nil {
		return errors.New("verbs: QP not connected")
	}
	return qp.stage(&nic.WQE{
		WRID: wrid, Op: nic.OpAtomicCAS,
		RemoteKey: remote.RKey, RemoteAddr: remote.Addr, Length: 8,
		CompareAdd: compare, Swap: swap,
	})
}

// StageWait stages a WAIT: the send queue blocks at this entry until cq's
// consumer index reaches thresh. The CQ must live on the same NIC (real
// WAIT WRs are same-device cross-queue).
func (qp *QP) StageWait(wrid uint64, cq *CQ, thresh uint64) error {
	if cq.ctx.dev != qp.ctx.dev {
		return errors.New("verbs: WAIT requires a CQ on the same NIC")
	}
	return qp.stage(&nic.WQE{WRID: wrid, Op: nic.OpWait, WaitCQ: cq.cnt, WaitThresh: thresh})
}

// StageEnable stages an ENABLE: when executed it advances target's doorbell
// by k entries (0 = everything staged there). Same-NIC only.
func (qp *QP) StageEnable(wrid uint64, target *QP, k int) error {
	if target.ctx.dev != qp.ctx.dev {
		return errors.New("verbs: ENABLE requires a target QP on the same NIC")
	}
	return qp.stage(&nic.WQE{WRID: wrid, Op: nic.OpEnable, TargetQPN: target.qpn, EnableCount: k})
}

// ExposeSQ registers mr as a self-modification window over this QP's send
// queue: slot i of the window (64 bytes each) shadows staged entry i, and
// RDMA writes (or StageReadInto landings) covering a slot rewrite the
// corresponding not-yet-enabled WQE's fields.
func (qp *QP) ExposeSQ(mr *MR) error {
	slots := int(mr.Size() / nic.SQSlotBytes)
	return qp.ctx.dev.RegisterSQWindow(qp.qpn, mr.rkey, mr.Base(), slots)
}

// SQDepth reports the QP's staged and enabled entry counts.
func (qp *QP) SQDepth() (staged, enabled int) {
	return qp.ctx.dev.SQDepth(qp.qpn)
}

// Destroy tears the QP down on its NIC: the retransmit timer is cancelled,
// outstanding WQEs are dropped without completions, and the QPN is freed.
// Mirrors ibv_destroy_qp — responses still in flight for the old QPN are
// silently discarded on arrival. Both sides of the connection are unwired:
// leaving the peer's pointer at a destroyed QP would let a later Connect on
// the peer silently resurrect it.
func (qp *QP) Destroy() error {
	if p := qp.peer; p != nil && p.peer == qp {
		p.peer = nil
	}
	qp.peer = nil
	return qp.ctx.dev.DestroyQP(qp.qpn)
}

// Network wires contexts together with full-duplex links, and owns the
// fabric address space: every context that joins a topology (directly or
// through a switch) gets a unique address stamped into its NIC, which
// switches use for destination forwarding. Assignment is a bare counter —
// no RNG — so wiring order alone determines addresses and sweeps stay
// deterministic.
type Network struct {
	eng *sim.Engine
	// PropDelay is the one-way propagation delay applied to new links.
	PropDelay sim.Duration

	nextAddr uint32
}

// NewNetwork creates a network builder. Default propagation delay is a
// typical same-rack 500 ns.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, PropDelay: 500 * sim.Nanosecond}
}

// ConnectContexts creates the wire between two contexts (idempotent per
// pair). Line rate follows the slower NIC. The returned wire exposes both
// links so callers can install fault plans or read drop counters.
func (n *Network) ConnectContexts(a, b *Context) *fabric.Wire {
	rate := a.dev.Profile().LineRateGbps
	if rb := b.dev.Profile().LineRateGbps; rb < rate {
		rate = rb
	}
	ab := fabric.NewLink(n.eng, a.Name+"->"+b.Name, rate, n.PropDelay, 0, nic.Deliver)
	ba := fabric.NewLink(n.eng, b.Name+"->"+a.Name, rate, n.PropDelay, 0, nic.Deliver)
	a.dev.AddPeerLink(b.dev, ab)
	b.dev.AddPeerLink(a.dev, ba)
	// Direct links ignore addresses, but assign them anyway so a context
	// wired point-to-point can later also hang off a switch.
	n.Addr(a)
	n.Addr(b)
	return &fabric.Wire{AtoB: ab, BtoA: ba}
}

// Addr returns the fabric address of a context's NIC, assigning the next
// free one on first use.
func (n *Network) Addr(c *Context) uint32 {
	if c.dev.Addr() == 0 {
		n.nextAddr++
		c.dev.SetAddr(n.nextAddr)
	}
	return c.dev.Addr()
}

// AttachToSwitch hangs a context off a switch port: a new egress port on the
// switch clocking at the NIC's line rate delivers to the NIC, an uplink from
// the NIC feeds the switch's ingress (and is the PFC pause target), and the
// switch learns a route for the context's address. It returns the port index
// and the uplink. Reachability is separate — callers make peers visible to
// each other with SetPath once both are attached.
func (n *Network) AttachToSwitch(c *Context, sw *fabric.Switch) (port int, up *fabric.Link) {
	rate := c.dev.Profile().LineRateGbps
	port = sw.AddPort(c.Name, rate, n.PropDelay, nic.Deliver)
	up = fabric.NewLink(n.eng, c.Name+"->"+sw.Name(), rate, n.PropDelay, 0, sw.Ingress)
	sw.SetUpstream(port, up, 0)
	sw.Route(n.Addr(c), port)
	return port, up
}

// SetPath makes dst reachable from src through the given first-hop link
// (typically src's switch uplink). One physical uplink serves any number of
// destinations.
func (n *Network) SetPath(src, dst *Context, firstHop *fabric.Link) {
	n.Addr(dst) // ensure the destination is addressable before traffic flows
	src.dev.AddPeerLink(dst.dev, firstHop)
}

// ConnectSwitches trunks two switches with a full-duplex pair of ports at
// the given rate. Each switch's trunk port names the other switch's egress
// link as its upstream, so PFC pause propagates across the trunk, and
// reaches the peer PropDelay after the switch asserts it. Routing across
// the trunk is the topology builder's job (Route entries per address). It
// returns the port index of the trunk on each switch (a's, then b's).
func (n *Network) ConnectSwitches(a, b *fabric.Switch, rateGbps float64) (int, int) {
	pa := a.AddPort("trunk:"+b.Name(), rateGbps, n.PropDelay, b.Ingress)
	pb := b.AddPort("trunk:"+a.Name(), rateGbps, n.PropDelay, a.Ingress)
	a.SetUpstream(pa, b.EgressLink(pb), n.PropDelay)
	b.SetUpstream(pb, a.EgressLink(pa), n.PropDelay)
	return pa, pb
}

// Connect establishes a reliable connection between two QPs whose contexts
// are already wired. Reconnecting a QP detaches its previous peer cleanly:
// the old peer's dangling pointer is cleared (it would otherwise still
// believe itself connected and post into a connection that no longer
// exists on the other side).
func Connect(a, b *QP) error {
	if err := a.ctx.dev.ConnectQP(a.qpn, b.ctx.dev, b.qpn); err != nil {
		return err
	}
	if err := b.ctx.dev.ConnectQP(b.qpn, a.ctx.dev, a.qpn); err != nil {
		return err
	}
	if old := a.peer; old != nil && old != b && old.peer == a {
		old.peer = nil
	}
	if old := b.peer; old != nil && old != a && old.peer == b {
		old.peer = nil
	}
	a.peer, b.peer = b, a
	return nil
}
