// Package appnvmf implements an NVMe-over-Fabrics-style storage victim on
// the simulated verbs layer — the workload class NeVerMore attacks in the
// paper's Section V: a storage target whose data path is pure RDMA. Command
// capsules travel as two-sided SENDs; data moves one-sided (the target
// RDMA-Writes read data into the initiator's buffers and RDMA-Reads write
// data out of them); completion capsules travel back as SENDs. Each queue
// pair carries one submission/completion queue with a bounded number of
// outstanding commands, and the initiator drives it open-loop from a seeded
// RNG — a sustained, mixed read/write storage signature the protocol-abuse
// experiment degrades and the defense tries to classify.
package appnvmf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Capsule geometry. Command capsules are fixed 64-byte SENDs (the NVMe-oF
// in-capsule SQE); completion capsules are fixed 16-byte SENDs (the CQE).
// The target validates sizes strictly: anything else on a queue is a
// send/recv buffer mismatch and counts as a bad capsule.
const (
	CapsuleSize    = 64
	CompletionSize = 16
)

// NVMe opcodes carried in command capsules (the I/O command set subset the
// victim serves).
const (
	CmdFlush uint8 = 0x00
	CmdWrite uint8 = 0x01
	CmdRead  uint8 = 0x02
)

// Completion status codes.
const (
	StatusOK           uint8 = 0x00
	StatusInvalidField uint8 = 0x02
	StatusLBARange     uint8 = 0x80
)

// Command is one decoded command capsule: the SQE plus the SGL the target
// needs to move data one-sided (initiator buffer address + rkey).
type Command struct {
	Op     uint8
	CID    uint16
	NSID   uint32
	Offset uint64 // byte offset into the namespace (LBA pre-multiplied)
	Length uint32 // transfer size in bytes
	RAddr  uint64 // initiator-side data buffer
	RKey   uint32
}

// Marshal encodes the command into a 64-byte capsule.
func (c Command) Marshal() []byte {
	b := make([]byte, CapsuleSize)
	b[0] = c.Op
	binary.LittleEndian.PutUint16(b[1:], c.CID)
	binary.LittleEndian.PutUint32(b[4:], c.NSID)
	binary.LittleEndian.PutUint64(b[8:], c.Offset)
	binary.LittleEndian.PutUint32(b[16:], c.Length)
	binary.LittleEndian.PutUint64(b[20:], c.RAddr)
	binary.LittleEndian.PutUint32(b[28:], c.RKey)
	return b
}

// UnmarshalCommand decodes a command capsule, rejecting size mismatches.
func UnmarshalCommand(b []byte) (Command, error) {
	if len(b) != CapsuleSize {
		return Command{}, fmt.Errorf("appnvmf: capsule size %d, want %d", len(b), CapsuleSize)
	}
	return Command{
		Op:     b[0],
		CID:    binary.LittleEndian.Uint16(b[1:]),
		NSID:   binary.LittleEndian.Uint32(b[4:]),
		Offset: binary.LittleEndian.Uint64(b[8:]),
		Length: binary.LittleEndian.Uint32(b[16:]),
		RAddr:  binary.LittleEndian.Uint64(b[20:]),
		RKey:   binary.LittleEndian.Uint32(b[28:]),
	}, nil
}

// Completion is one decoded completion capsule.
type Completion struct {
	Status uint8
	CID    uint16
}

func (c Completion) marshal() []byte {
	b := make([]byte, CompletionSize)
	b[0] = c.Status
	binary.LittleEndian.PutUint16(b[1:], c.CID)
	return b
}

func unmarshalCompletion(b []byte) (Completion, error) {
	if len(b) != CompletionSize {
		return Completion{}, fmt.Errorf("appnvmf: completion size %d, want %d", len(b), CompletionSize)
	}
	return Completion{Status: b[0], CID: binary.LittleEndian.Uint16(b[1:])}, nil
}

// ---------------------------------------------------------------------------
// Target
// ---------------------------------------------------------------------------

// TargetCounters are the target's service-level observables. BadCapsules is
// the S/R-mismatch abuse marker: benign initiators always frame capsules
// exactly, and wire loss drops whole frames without truncating them, so any
// nonzero count is protocol abuse, never congestion.
type TargetCounters struct {
	Commands    uint64 // well-formed commands admitted
	Reads       uint64
	Writes      uint64
	BadCapsules uint64 // malformed size, unknown opcode, bad NSID, LBA overrun
	QueueFull   uint64 // commands dropped at the per-queue outstanding bound
}

// Target is the NVMe-oF storage target: namespaces backed by registered MRs,
// served over any number of queues.
type Target struct {
	ctx *verbs.Context
	pd  *verbs.PD
	// namespaces[nsid-1] backs namespace nsid (NSIDs are 1-based, as in NVMe).
	namespaces []*verbs.MR
	queues     []*TargetQueue
	counters   TargetCounters
}

// NewTarget creates a target with one namespace of nsBytes, its blocks
// filled with a deterministic per-block pattern so initiators can verify
// read payloads end to end.
func NewTarget(ctx *verbs.Context, nsBytes uint64) (*Target, error) {
	t := &Target{ctx: ctx, pd: ctx.AllocPD()}
	if _, err := t.AddNamespace(nsBytes); err != nil {
		return nil, err
	}
	return t, nil
}

// AddNamespace registers one more namespace MR and returns its NSID.
func (t *Target) AddNamespace(nsBytes uint64) (uint32, error) {
	mr, err := t.pd.RegMR(nsBytes, hugePage, verbs.AccessRemoteRead|verbs.AccessRemoteWrite)
	if err != nil {
		return 0, err
	}
	FillPattern(mr.Bytes(), uint32(len(t.namespaces)+1))
	t.namespaces = append(t.namespaces, mr)
	return uint32(len(t.namespaces)), nil
}

// Counters returns the target's service counters.
func (t *Target) Counters() TargetCounters { return t.counters }

// Namespace returns the MR backing the given NSID (nil if unknown).
func (t *Target) Namespace(nsid uint32) *verbs.MR {
	if nsid == 0 || int(nsid) > len(t.namespaces) {
		return nil
	}
	return t.namespaces[nsid-1]
}

// FillPattern writes the verifiable namespace pattern: every 8-byte word
// holds its own namespace-salted offset, so a read of any aligned range is
// checkable without reference data.
func FillPattern(b []byte, salt uint32) {
	for off := 0; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], uint64(off)^(uint64(salt)<<56))
	}
}

// CheckPattern verifies a buffer read from namespace offset off.
func CheckPattern(b []byte, salt uint32, off uint64) bool {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != (off+uint64(i))^(uint64(salt)<<56) {
			return false
		}
	}
	return true
}

// targetOp is one in-flight backend operation (data movement phase).
type targetOp struct {
	cmd     Command
	staging []byte // bounce buffer: READ source snapshot / WRITE landing zone
}

// TargetQueue is one served submission/completion queue: a server-side QP
// whose inbound SENDs are command capsules. The queue owns an armed CQ — a
// storage target's completion handler always keeps up, and an unarmed ring
// here would let the victim's own data-path completions overrun and pollute
// the CQ-exhaustion markers the defense watches.
type TargetQueue struct {
	tgt      *Target
	qp       *verbs.QP
	cq       *verbs.CQ
	depth    int
	inflight map[uint64]*targetOp
	nextWR   uint64
	// Errors counts backend verbs that completed in error (transport
	// failures surface here, e.g. a flushed QP after retry exhaustion).
	Errors uint64
}

// Serve creates one target queue with the given bound on outstanding
// commands (the NVMe queue depth the target enforces). The returned queue's
// QP must then be connected to the initiator's QP.
func (t *Target) Serve(depth int) (*TargetQueue, error) {
	if depth <= 0 {
		depth = 64
	}
	q := &TargetQueue{tgt: t, depth: depth, inflight: map[uint64]*targetOp{}}
	q.cq = t.ctx.CreateCQ(0)
	q.cq.Notify = q.onCompletion
	qp, err := t.ctx.CreateQP(t.pd, q.cq, verbs.QPCap{MaxSendWR: 2 * depth})
	if err != nil {
		return nil, err
	}
	q.qp = qp
	qp.OnRecv = q.onCapsule
	t.queues = append(t.queues, q)
	return q, nil
}

// QP returns the queue's server-side endpoint for connection wiring.
func (q *TargetQueue) QP() *verbs.QP { return q.qp }

// onCapsule admits one inbound command capsule.
func (q *TargetQueue) onCapsule(ev nic.RecvEvent) {
	if ev.Op != nic.OpSend {
		return // one-sided traffic against the namespaces is not a capsule
	}
	cmd, err := UnmarshalCommand(ev.Data)
	if err != nil {
		q.tgt.counters.BadCapsules++
		return // unframeable: no CID to answer
	}
	ns := q.tgt.Namespace(cmd.NSID)
	switch {
	case cmd.Op != CmdRead && cmd.Op != CmdWrite && cmd.Op != CmdFlush:
		q.tgt.counters.BadCapsules++
		q.complete(Completion{Status: StatusInvalidField, CID: cmd.CID})
		return
	case ns == nil:
		q.tgt.counters.BadCapsules++
		q.complete(Completion{Status: StatusInvalidField, CID: cmd.CID})
		return
	case cmd.Op != CmdFlush && (cmd.Length == 0 || cmd.Offset+uint64(cmd.Length) > ns.Size()):
		q.tgt.counters.BadCapsules++
		q.complete(Completion{Status: StatusLBARange, CID: cmd.CID})
		return
	}
	if len(q.inflight) >= q.depth {
		q.tgt.counters.QueueFull++
		return // open-loop overrun: shed, as a full hardware SQ would
	}
	q.tgt.counters.Commands++
	q.nextWR++
	wrid := q.nextWR
	op := &targetOp{cmd: cmd}
	remote := verbs.RemoteBuf{RKey: cmd.RKey, Addr: cmd.RAddr}
	var postErr error
	switch cmd.Op {
	case CmdRead:
		// Storage read: snapshot namespace bytes into a bounce buffer and
		// push that. RDMA buffer-stability rules hold until the WQE
		// completes, and a concurrent storage write committing an
		// overlapping LBA range must not mutate a data frame already in
		// flight — the block-level read serves whichever version was
		// current when the command was admitted.
		q.tgt.counters.Reads++
		op.staging = make([]byte, cmd.Length)
		copy(op.staging, ns.Bytes()[cmd.Offset:cmd.Offset+uint64(cmd.Length)])
		postErr = q.qp.PostWrite(wrid, op.staging, remote, int(cmd.Length))
	case CmdWrite:
		// Storage write: pull the initiator's buffer into staging; the
		// namespace copy happens when the Read retires.
		q.tgt.counters.Writes++
		op.staging = make([]byte, cmd.Length)
		postErr = q.qp.PostRead(wrid, op.staging, remote, int(cmd.Length))
	case CmdFlush:
		// No data phase: complete immediately.
		q.complete(Completion{Status: StatusOK, CID: cmd.CID})
		return
	}
	if postErr != nil {
		q.Errors++
		return
	}
	q.inflight[wrid] = op
}

// onCompletion retires one backend verb: the data phase of an in-flight
// command, or the SEND of a completion capsule (not tracked).
func (q *TargetQueue) onCompletion(c nic.Completion) {
	op, ok := q.inflight[c.WRID]
	if !ok {
		if c.Status != nic.StatusOK {
			q.Errors++
		}
		return
	}
	delete(q.inflight, c.WRID)
	if c.Status != nic.StatusOK {
		q.Errors++
		return
	}
	if op.cmd.Op == CmdWrite {
		ns := q.tgt.Namespace(op.cmd.NSID)
		copy(ns.Bytes()[op.cmd.Offset:], op.staging)
	}
	q.complete(Completion{Status: StatusOK, CID: op.cmd.CID})
}

func (q *TargetQueue) complete(c Completion) {
	q.nextWR++
	if err := q.qp.PostSend(q.nextWR, c.marshal()); err != nil {
		q.Errors++
	}
}

// ---------------------------------------------------------------------------
// Initiator
// ---------------------------------------------------------------------------

// WorkloadConfig parameterises the open-loop generator.
type WorkloadConfig struct {
	Seed int64
	// ReadPct is the read fraction in percent (the rest are writes).
	ReadPct int
	// BlockSizes is the block-size mix, drawn uniformly per command.
	BlockSizes []int
	// QueueDepth bounds outstanding commands per queue.
	QueueDepth int
	// InterArrival is the open-loop issue period: one command is offered
	// every tick regardless of completions (offered > serviced shows up as
	// Stalls, not back-pressure on the generator).
	InterArrival sim.Duration
	// NSID selects the target namespace (default 1).
	NSID uint32
}

// DefaultWorkload is the experiment's standard storage signature: 70/30
// read/write over a 4 KiB-centric block mix at queue depth 16.
func DefaultWorkload(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:         seed,
		ReadPct:      70,
		BlockSizes:   []int{512, 4096, 16384},
		QueueDepth:   16,
		InterArrival: 800 * sim.Nanosecond,
		NSID:         1,
	}
}

// InitiatorStats are the victim-side service metrics the experiment scores.
type InitiatorStats struct {
	Issued     uint64
	Completed  uint64
	Stalls     uint64 // offered commands shed because the SQ was full
	DataErrors uint64 // read payloads that failed pattern verification
	ErrStatus  uint64 // completions with a non-OK NVMe status
}

// Initiator drives one queue against a target: it owns the data-buffer MR
// the target moves into/out of, issues command capsules open-loop, and
// matches completion capsules by CID.
type Initiator struct {
	ctx    *verbs.Context
	eng    *sim.Engine
	cfg    WorkloadConfig
	rng    *rand.Rand
	qp     *verbs.QP
	cq     *verbs.CQ
	dataMR *verbs.MR
	nsSize uint64
	nsSalt uint32

	pending  map[uint16]*pendingCmd
	freeCIDs []uint16
	stats    InitiatorStats
	lats     []float64 // completion latencies, microseconds
	stopped  bool
	tickFn   func()
}

type pendingCmd struct {
	cmd    Command
	slot   int
	issued sim.Time
}

// hugePage matches the lab's Grain-III/IV MR configuration.
const hugePage = host.Page2M

// NewInitiator connects an initiator on ctx to the given target queue. The
// initiator registers one data MR sized QueueDepth × max block, slotted per
// CID, and arms its own CQ (the storage stack services completions inline).
func NewInitiator(ctx *verbs.Context, tq *TargetQueue, cfg WorkloadConfig) (*Initiator, error) {
	if cfg.QueueDepth <= 0 || len(cfg.BlockSizes) == 0 || cfg.InterArrival <= 0 {
		return nil, errors.New("appnvmf: incomplete workload config")
	}
	if cfg.NSID == 0 {
		cfg.NSID = 1
	}
	ns := tq.tgt.Namespace(cfg.NSID)
	if ns == nil {
		return nil, fmt.Errorf("appnvmf: namespace %d not served", cfg.NSID)
	}
	ini := &Initiator{
		ctx: ctx, eng: ctx.Engine(), cfg: cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nsSize:  ns.Size(),
		nsSalt:  cfg.NSID,
		pending: map[uint16]*pendingCmd{},
	}
	maxBlock := 0
	for _, s := range cfg.BlockSizes {
		if s > maxBlock {
			maxBlock = s
		}
	}
	pd := ctx.AllocPD()
	mr, err := pd.RegMR(uint64(cfg.QueueDepth*maxBlock), hugePage,
		verbs.AccessRemoteRead|verbs.AccessRemoteWrite)
	if err != nil {
		return nil, err
	}
	ini.dataMR = mr
	// Host memory is backed on first touch. Every command writes this
	// buffer, so back it here, at set-up, not inside the first command.
	mr.Bytes()
	ini.cq = ctx.CreateCQ(0)
	ini.cq.Notify = func(nic.Completion) {} // capsule SENDs need no tracking
	qp, err := ctx.CreateQP(pd, ini.cq, verbs.QPCap{MaxSendWR: 2 * cfg.QueueDepth})
	if err != nil {
		return nil, err
	}
	ini.qp = qp
	qp.OnRecv = ini.onCompletion
	if err := verbs.Connect(qp, tq.QP()); err != nil {
		return nil, err
	}
	for cid := cfg.QueueDepth - 1; cid >= 0; cid-- {
		ini.freeCIDs = append(ini.freeCIDs, uint16(cid))
	}
	// Each CID owns a fixed max-block slot; read data lands there, write
	// data is staged there.
	return ini, nil
}

// QP returns the initiator-side endpoint (the adversary snoops its uplink).
func (ini *Initiator) QP() *verbs.QP { return ini.qp }

// Stats returns a copy of the current service metrics.
func (ini *Initiator) Stats() InitiatorStats { return ini.stats }

// Latencies returns the recorded per-command completion latencies (µs).
func (ini *Initiator) Latencies() []float64 { return ini.lats }

// ResetLatencies clears the latency record (phase boundaries).
func (ini *Initiator) ResetLatencies() { ini.lats = ini.lats[:0] }

// Start begins open-loop issue. Stop ends it; in-flight commands drain.
func (ini *Initiator) Start() {
	ini.stopped = false
	ini.tickFn = ini.tick
	ini.tick()
}

// Stop halts the generator after the current tick.
func (ini *Initiator) Stop() { ini.stopped = true }

func (ini *Initiator) tick() {
	if ini.stopped {
		return
	}
	ini.issueOne()
	ini.eng.After(ini.cfg.InterArrival, ini.tickFn)
}

func (ini *Initiator) issueOne() {
	ini.stats.Issued++
	if len(ini.freeCIDs) == 0 {
		ini.stats.Stalls++
		return
	}
	cid := ini.freeCIDs[len(ini.freeCIDs)-1]
	ini.freeCIDs = ini.freeCIDs[:len(ini.freeCIDs)-1]
	size := ini.cfg.BlockSizes[ini.rng.Intn(len(ini.cfg.BlockSizes))]
	op := CmdWrite
	if ini.rng.Intn(100) < ini.cfg.ReadPct {
		op = CmdRead
	}
	// Block-aligned namespace offset.
	offset := uint64(0)
	if blocks := ini.nsSize / uint64(size); blocks > 0 {
		offset = uint64(ini.rng.Int63n(int64(blocks))) * uint64(size)
	}
	slot := int(cid) * ini.slotBytes()
	if op == CmdWrite {
		// Stamp the slot with the namespace pattern for that range, so a
		// later read of the same range still verifies.
		FillPatternAt(ini.dataMR.Bytes()[slot:slot+size], ini.nsSalt, offset)
	}
	cmd := Command{
		Op: op, CID: cid, NSID: ini.cfg.NSID,
		Offset: offset, Length: uint32(size),
		RAddr: ini.dataMR.Addr(uint64(slot)), RKey: ini.dataMR.RKey(),
	}
	ini.pending[cid] = &pendingCmd{cmd: cmd, slot: slot, issued: ini.eng.Now()}
	if err := ini.qp.PostSend(uint64(cid)|1<<32, cmd.Marshal()); err != nil {
		// SQ full counts as a stall; the CID slot returns to the pool.
		delete(ini.pending, cid)
		ini.freeCIDs = append(ini.freeCIDs, cid)
		ini.stats.Stalls++
		return
	}
}

func (ini *Initiator) slotBytes() int {
	max := 0
	for _, s := range ini.cfg.BlockSizes {
		if s > max {
			max = s
		}
	}
	return max
}

// FillPatternAt stamps b with the namespace pattern starting at offset off.
func FillPatternAt(b []byte, salt uint32, off uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], (off+uint64(i))^(uint64(salt)<<56))
	}
}

// onCompletion handles one inbound completion capsule.
func (ini *Initiator) onCompletion(ev nic.RecvEvent) {
	if ev.Op != nic.OpSend {
		return // target data-phase WRITE landing in the data MR
	}
	comp, err := unmarshalCompletion(ev.Data)
	if err != nil {
		return // not a completion capsule; ignore
	}
	pc, ok := ini.pending[comp.CID]
	if !ok {
		return // duplicate or forged CID
	}
	delete(ini.pending, comp.CID)
	ini.freeCIDs = append(ini.freeCIDs, comp.CID)
	ini.stats.Completed++
	if comp.Status != StatusOK {
		ini.stats.ErrStatus++
		return
	}
	if pc.cmd.Op == CmdRead {
		got := ini.dataMR.Bytes()[pc.slot : pc.slot+int(pc.cmd.Length)]
		if !CheckPattern(got, ini.nsSalt, pc.cmd.Offset) {
			ini.stats.DataErrors++
		}
	}
	ini.lats = append(ini.lats, ini.eng.Now().Sub(pc.issued).Seconds()*1e6)
}

// Outstanding reports commands issued but not yet completed.
func (ini *Initiator) Outstanding() int { return len(ini.pending) }
