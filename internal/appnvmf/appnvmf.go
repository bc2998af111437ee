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
	"slices"

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

// Marshal encodes the command into a new 64-byte capsule.
func (c Command) Marshal() []byte {
	b := make([]byte, CapsuleSize)
	c.put(b)
	return b
}

// put encodes the command into b, CapsuleSize bytes.
func (c Command) put(b []byte) {
	clear(b[:CapsuleSize])
	b[0] = c.Op
	binary.LittleEndian.PutUint16(b[1:], c.CID)
	binary.LittleEndian.PutUint32(b[4:], c.NSID)
	binary.LittleEndian.PutUint64(b[8:], c.Offset)
	binary.LittleEndian.PutUint32(b[16:], c.Length)
	binary.LittleEndian.PutUint64(b[20:], c.RAddr)
	binary.LittleEndian.PutUint32(b[28:], c.RKey)
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

// put encodes the completion into b, CompletionSize bytes.
func (c Completion) put(b []byte) {
	clear(b)
	b[0] = c.Status
	binary.LittleEndian.PutUint16(b[1:], c.CID)
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

// Target is the NVMe-oF storage target: namespaces on registered MRs,
// served over any number of queues.
type Target struct {
	ctx *verbs.Context
	pd  *verbs.PD
	// namespaces[nsid-1] is namespace nsid (NSIDs are 1-based, as in NVMe).
	namespaces []*namespace
	queues     []*TargetQueue
	counters   TargetCounters
}

// namespace is one served namespace: FillPattern's pattern, salted with the
// NSID, until a write stores other bytes. Holding the pattern costs nothing.
// The MR is registered, so its key, address and ICM entry are what a filled
// one's would be, but it is neither backed nor filled. A read generates the
// pattern into the op's bounce buffer, and a write of the pattern's own
// bytes for its range commits nothing. The first write of other bytes backs
// the MR, fills it once, and the namespace is stored in it from then on.
//
// Until the namespace is stored, the MR's host bytes are zeros, not the
// namespace. That is sound only because no RDMA peer addresses a namespace
// MR: capsules carry the initiator's keys, the target moves data through
// bounce buffers, and nothing hands out the namespace's key. Code that gives
// a peer that key must store the namespace first.
type namespace struct {
	mr     *verbs.MR
	salt   uint32
	stored bool
}

// read snapshots the namespace bytes at [off, off+len(b)) into b.
func (ns *namespace) read(b []byte, off uint64) {
	if ns.stored {
		copy(b, ns.mr.Bytes()[off:])
		return
	}
	patternRange(b, ns.salt, off)
}

// write commits b at namespace offset off.
func (ns *namespace) write(b []byte, off uint64) {
	if !ns.stored {
		if isPattern(b, ns.salt, off) {
			return
		}
		FillPattern(ns.mr.Bytes(), ns.salt)
		ns.stored = true
	}
	copy(ns.mr.Bytes()[off:], b)
}

// NewTarget creates a target with one namespace of nsBytes, holding a
// deterministic per-word pattern so initiators can verify read payloads end
// to end.
func NewTarget(ctx *verbs.Context, nsBytes uint64) (*Target, error) {
	t := &Target{ctx: ctx, pd: ctx.AllocPD()}
	if err := t.addNamespace(nsBytes); err != nil {
		return nil, err
	}
	return t, nil
}

// addNamespace registers one more namespace MR; its NSID is the new
// len(t.namespaces).
func (t *Target) addNamespace(nsBytes uint64) error {
	mr, err := t.pd.RegMR(nsBytes, hugePage, verbs.AccessRemoteRead|verbs.AccessRemoteWrite)
	if err != nil {
		return err
	}
	t.namespaces = append(t.namespaces, &namespace{mr: mr, salt: uint32(len(t.namespaces) + 1)})
	return nil
}

// Counters returns the target's service counters.
func (t *Target) Counters() TargetCounters { return t.counters }

// namespace returns the namespace with the given NSID (nil if unknown).
func (t *Target) namespace(nsid uint32) *namespace {
	if nsid == 0 || int(nsid) > len(t.namespaces) {
		return nil
	}
	return t.namespaces[nsid-1]
}

// FillPattern writes the verifiable namespace pattern: every 8-byte word
// holds its own namespace-salted offset, so a read of any aligned range is
// checkable without reference data.
func FillPattern(b []byte, salt uint32) { FillPatternAt(b, salt, 0) }

// FillPatternAt stamps b with the namespace pattern starting at offset off:
// the word at b[i:] holds (off+i) ^ salt<<56. Bytes past the last whole
// word are left as they are.
func FillPatternAt(b []byte, salt uint32, off uint64) {
	s := uint64(salt) << 56
	for ; len(b) >= 32; b = b[32:] {
		binary.LittleEndian.PutUint64(b[0:8], off^s)
		binary.LittleEndian.PutUint64(b[8:16], (off+8)^s)
		binary.LittleEndian.PutUint64(b[16:24], (off+16)^s)
		binary.LittleEndian.PutUint64(b[24:32], (off+24)^s)
		off += 32
	}
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, off^s)
		off += 8
	}
}

// CheckPattern verifies a buffer read from namespace offset off: every whole
// word must hold the pattern; bytes past the last one are not checked.
func CheckPattern(b []byte, salt uint32, off uint64) bool {
	s := uint64(salt) << 56
	// Every word's difference from the pattern is ORed in, and the sum
	// tested once. The parentheses matter: | and ^ share a precedence.
	var diff uint64
	for ; len(b) >= 32; b = b[32:] {
		diff |= (binary.LittleEndian.Uint64(b[0:8]) ^ (off ^ s)) |
			(binary.LittleEndian.Uint64(b[8:16]) ^ ((off + 8) ^ s)) |
			(binary.LittleEndian.Uint64(b[16:24]) ^ ((off + 16) ^ s)) |
			(binary.LittleEndian.Uint64(b[24:32]) ^ ((off + 24) ^ s))
		off += 32
	}
	for ; len(b) >= 8; b = b[8:] {
		diff |= binary.LittleEndian.Uint64(b) ^ (off ^ s)
		off += 8
	}
	return diff == 0
}

// patternByte is the pattern's byte at namespace offset p.
func patternByte(salt uint32, p uint64) byte {
	return byte(((p &^ 7) ^ (uint64(salt) << 56)) >> (8 * (p & 7)))
}

// patternRange writes the namespace pattern's bytes at [off, off+len(b))
// into b — FillPattern's output at that range, at any offset and length:
// the head bytes before the first word boundary and the tail bytes after
// the last whole word one by one, the words between by FillPatternAt. A
// namespace is whole huge pages, so every byte of it lies in a whole word.
func patternRange(b []byte, salt uint32, off uint64) {
	head := min(int(-off&7), len(b))
	words := (len(b) - head) &^ 7
	for i := range head {
		b[i] = patternByte(salt, off+uint64(i))
	}
	FillPatternAt(b[head:head+words], salt, off+uint64(head))
	for i := head + words; i < len(b); i++ {
		b[i] = patternByte(salt, off+uint64(i))
	}
}

// isPattern reports whether b equals the namespace pattern's bytes at
// [off, off+len(b)), every byte of it.
func isPattern(b []byte, salt uint32, off uint64) bool {
	head := min(int(-off&7), len(b))
	words := (len(b) - head) &^ 7
	for i := range head {
		if b[i] != patternByte(salt, off+uint64(i)) {
			return false
		}
	}
	for i := head + words; i < len(b); i++ {
		if b[i] != patternByte(salt, off+uint64(i)) {
			return false
		}
	}
	return CheckPattern(b[head:head+words], salt, off+uint64(head))
}

// targetOp is one command's state on the target, from admission to the
// CQE of its completion capsule's SEND. Ops and their buffers are recycled
// through the queue's free list: the verbs contract gives a buffer back at
// its CQE, so no command allocates once the list has grown.
type targetOp struct {
	cmd     Command
	wrid    uint64 // the op's verb in flight: its data phase or capsule SEND
	sending bool   // the verb in flight is the capsule SEND
	staging []byte // bounce buffer: READ source snapshot / WRITE landing zone
	capsule [CompletionSize]byte
}

// TargetQueue is one served submission/completion queue: a server-side QP
// whose inbound SENDs are command capsules. The queue owns an armed CQ — a
// storage target's completion handler always keeps up, and an unarmed ring
// here would let the victim's own data-path completions overrun and pollute
// the CQ-exhaustion markers the defense watches.
type TargetQueue struct {
	tgt   *Target
	qp    *verbs.QP
	cq    *verbs.CQ
	depth int
	// active holds the ops with a verb in flight, in post order, and
	// inData counts those in their data phase (the queue-full bound); free
	// holds the ops ready for reuse.
	active []*targetOp
	inData int
	free   []*targetOp
	nextWR uint64
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
	q := &TargetQueue{tgt: t, depth: depth}
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

// getOp takes an op from the free list, or makes one.
func (q *TargetQueue) getOp() *targetOp {
	k := len(q.free) - 1
	if k < 0 {
		return new(targetOp)
	}
	op := q.free[k]
	q.free = q.free[:k]
	return op
}

// putOp returns an op, its buffers included, to the free list.
func (q *TargetQueue) putOp(op *targetOp) {
	op.cmd = Command{}
	q.free = append(q.free, op)
}

// stage sizes op's staging buffer to n bytes, reusing its backing.
func (op *targetOp) stage(n uint32) {
	if uint32(cap(op.staging)) < n {
		op.staging = make([]byte, n)
	}
	op.staging = op.staging[:n]
}

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
	ns := q.tgt.namespace(cmd.NSID)
	switch {
	case cmd.Op != CmdRead && cmd.Op != CmdWrite && cmd.Op != CmdFlush:
		q.tgt.counters.BadCapsules++
		q.complete(q.getOp(), Completion{Status: StatusInvalidField, CID: cmd.CID})
		return
	case ns == nil:
		q.tgt.counters.BadCapsules++
		q.complete(q.getOp(), Completion{Status: StatusInvalidField, CID: cmd.CID})
		return
	case cmd.Op != CmdFlush && (cmd.Length == 0 || cmd.Offset+uint64(cmd.Length) > ns.mr.Size()):
		q.tgt.counters.BadCapsules++
		q.complete(q.getOp(), Completion{Status: StatusLBARange, CID: cmd.CID})
		return
	}
	if q.inData >= q.depth {
		q.tgt.counters.QueueFull++
		return // open-loop overrun: shed, as a full hardware SQ would
	}
	q.tgt.counters.Commands++
	q.nextWR++
	wrid := q.nextWR
	op := q.getOp()
	op.cmd = cmd
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
		op.stage(cmd.Length)
		ns.read(op.staging, cmd.Offset)
		postErr = q.qp.PostWrite(wrid, op.staging, remote, int(cmd.Length))
	case CmdWrite:
		// Storage write: pull the initiator's buffer into staging; the
		// namespace commit happens when the Read retires. The landing zone
		// starts zeroed, as a fresh buffer would: a completion forged
		// before any data lands commits zeros, not an earlier command's
		// bytes.
		q.tgt.counters.Writes++
		op.stage(cmd.Length)
		clear(op.staging)
		postErr = q.qp.PostRead(wrid, op.staging, remote, int(cmd.Length))
	case CmdFlush:
		// No data phase: complete immediately.
		q.complete(op, Completion{Status: StatusOK, CID: cmd.CID})
		return
	}
	if postErr != nil {
		q.Errors++
		q.putOp(op)
		return
	}
	op.wrid, op.sending = wrid, false
	q.active = append(q.active, op)
	q.inData++
}

// onCompletion retires one backend verb: the data phase of an in-flight
// command, or the SEND of a completion capsule, whose op is then free.
// Verbs complete in post order on a lossless QP, so the op is found at the
// head of the active list.
func (q *TargetQueue) onCompletion(c nic.Completion) {
	if c.Status != nic.StatusOK {
		q.Errors++
	}
	i := slices.IndexFunc(q.active, func(op *targetOp) bool { return op.wrid == c.WRID })
	if i < 0 {
		return
	}
	op := q.active[i]
	q.active = slices.Delete(q.active, i, i+1)
	if !op.sending {
		q.inData--
	}
	if op.sending || c.Status != nic.StatusOK {
		q.putOp(op)
		return
	}
	if op.cmd.Op == CmdWrite {
		q.tgt.namespace(op.cmd.NSID).write(op.staging, op.cmd.Offset)
	}
	q.complete(op, Completion{Status: StatusOK, CID: op.cmd.CID})
}

// complete sends c from op's capsule; op is free again at the SEND's CQE.
func (q *TargetQueue) complete(op *targetOp, c Completion) {
	q.nextWR++
	c.put(op.capsule[:])
	if err := q.qp.PostSend(q.nextWR, op.capsule[:]); err != nil {
		q.Errors++
		q.putOp(op)
		return
	}
	op.wrid, op.sending = q.nextWR, true
	q.active = append(q.active, op)
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
	slot   int // bytes per CID slot: the largest block size
	nsSize uint64
	nsSalt uint32

	// pending[cid] is the command issued under cid and the buffer its
	// capsule is sent from.
	pending  []pendingCmd
	freeCIDs []uint16
	stats    InitiatorStats
	lats     []float64 // completion latencies, microseconds
	stopped  bool
	tickFn   func()
}

type pendingCmd struct {
	cmd    Command
	issued sim.Time
	live   bool // awaiting its completion capsule
	// capsule is the buffer the CID's command capsules are sent from, and
	// sending counts those capsule SENDs without a CQE yet. A CID is free
	// again at its completion capsule, which can beat the CQE of its own
	// SEND when that SEND's ACK is lost; its retransmission then still
	// reads the buffer.
	capsule *[CapsuleSize]byte
	sending int
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
	ns := tq.tgt.namespace(cfg.NSID)
	if ns == nil {
		return nil, fmt.Errorf("appnvmf: namespace %d not served", cfg.NSID)
	}
	ini := &Initiator{
		ctx: ctx, eng: ctx.Engine(), cfg: cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		slot:    slices.Max(cfg.BlockSizes),
		nsSize:  ns.mr.Size(),
		nsSalt:  cfg.NSID,
		pending: make([]pendingCmd, cfg.QueueDepth),
	}
	capsules := make([][CapsuleSize]byte, cfg.QueueDepth)
	for cid := range ini.pending {
		ini.pending[cid].capsule = &capsules[cid]
	}
	pd := ctx.AllocPD()
	size := uint64(cfg.QueueDepth * ini.slot)
	mr, err := pd.RegMR(size, hugePage, verbs.AccessRemoteRead|verbs.AccessRemoteWrite)
	if err != nil {
		return nil, err
	}
	ini.dataMR = mr
	// Host memory is backed lazily. Every command touches its slot, so back
	// the slots here, at set-up, not inside the first command — and only
	// them, not the rest of the huge page.
	mr.Span(0, size)
	ini.cq = ctx.CreateCQ(0)
	ini.cq.Notify = func(c nic.Completion) { ini.pending[uint16(c.WRID)].sending-- }
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
	slot := int(cid) * ini.slot
	if op == CmdWrite {
		// Stamp the slot with the namespace pattern for that range, so a
		// later read of the same range still verifies.
		FillPatternAt(ini.dataMR.Span(uint64(slot), uint64(size)), ini.nsSalt, offset)
	}
	cmd := Command{
		Op: op, CID: cid, NSID: ini.cfg.NSID,
		Offset: offset, Length: uint32(size),
		RAddr: ini.dataMR.Addr(uint64(slot)), RKey: ini.dataMR.RKey(),
	}
	pc := &ini.pending[cid]
	if pc.sending > 0 {
		// An earlier capsule of this CID may still be retransmitted from
		// the buffer: leave it to that SEND and send from a new one.
		pc.capsule = new([CapsuleSize]byte)
	}
	cmd.put(pc.capsule[:])
	if err := ini.qp.PostSend(uint64(cid)|1<<32, pc.capsule[:]); err != nil {
		// SQ full counts as a stall; the CID slot returns to the pool.
		ini.freeCIDs = append(ini.freeCIDs, cid)
		ini.stats.Stalls++
		return
	}
	pc.cmd, pc.issued, pc.live = cmd, ini.eng.Now(), true
	pc.sending++
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
	if int(comp.CID) >= len(ini.pending) || !ini.pending[comp.CID].live {
		return // duplicate or forged CID
	}
	pc := &ini.pending[comp.CID]
	pc.live = false
	ini.freeCIDs = append(ini.freeCIDs, comp.CID)
	ini.stats.Completed++
	if comp.Status != StatusOK {
		ini.stats.ErrStatus++
		return
	}
	if pc.cmd.Op == CmdRead {
		slot := int(comp.CID) * ini.slot
		got := ini.dataMR.Span(uint64(slot), uint64(pc.cmd.Length))
		if !CheckPattern(got, ini.nsSalt, pc.cmd.Offset) {
			ini.stats.DataErrors++
		}
	}
	ini.lats = append(ini.lats, ini.eng.Now().Sub(pc.issued).Seconds()*1e6)
}

// Outstanding reports commands issued but not yet completed.
func (ini *Initiator) Outstanding() int { return ini.cfg.QueueDepth - len(ini.freeCIDs) }
