// Package appdb implements the RDMA-based distributed database substrate of
// Section VI-A: workers that shuffle (hash-repartition) and hash-join tables
// through a storage server's staging memory, the design the paper's citation
// [23] surveys for RDMA-era storage systems. The package provides both the
// real data path (rows actually move over simulated verbs, with checkable
// placement) and the traffic-phase schedules the fingerprinting side channel
// observes: shuffle produces a sustained plateau of large writes; hash join
// produces tooth-shaped read bursts separated by compute gaps.
package appdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// RowBytes is the fixed row size (64 B key + payload).
const RowBytes = 64

// PayloadBytes is the payload portion of a row.
const PayloadBytes = RowBytes - 8

// Row is one table row.
type Row struct {
	Key     uint64
	Payload [PayloadBytes]byte
}

func encodeRow(r Row, dst []byte) {
	binary.LittleEndian.PutUint64(dst, r.Key)
	copy(dst[8:], r.Payload[:])
}

func decodeRow(src []byte) Row {
	var r Row
	r.Key = binary.LittleEndian.Uint64(src)
	copy(r.Payload[:], src[8:RowBytes])
	return r
}

// BatchRows is the number of rows per network batch (4 KiB messages).
const BatchRows = 64

// DB is a distributed database instance: workers on lab clients, staging
// memory on the lab server.
type DB struct {
	cluster *lab.Cluster
	workers []*Worker
	// staging[w] is worker w's inbound partition area on the server.
	staging []*verbs.MR
	// stagingFill[w] tracks bytes appended to worker w's staging area.
	stagingFill []uint64
	// ops numbers this DB's verbs for their WRIDs, so a run's WRIDs
	// depend only on its own history.
	ops uint64
}

// Worker is one database executor.
type Worker struct {
	ID   int
	conn *lab.Conn
	db   *DB
	// Local holds the worker's current partition of each table.
	Local map[string][]Row
}

// New builds a DB with one worker per lab client. stagingBytes sizes each
// worker's server-side staging area.
func New(c *lab.Cluster, stagingBytes uint64) (*DB, error) {
	if stagingBytes == 0 {
		stagingBytes = 8 << 20
	}
	db := &DB{cluster: c}
	for i := range c.Clients {
		mr, err := c.RegisterServerMR(stagingBytes)
		if err != nil {
			return nil, err
		}
		conn, err := c.Dial(i, 32)
		if err != nil {
			return nil, err
		}
		if err := c.Warm(conn, mr); err != nil {
			return nil, err
		}
		db.staging = append(db.staging, mr)
		db.stagingFill = append(db.stagingFill, 0)
		db.workers = append(db.workers, &Worker{ID: i, conn: conn, db: db, Local: map[string][]Row{}})
	}
	return db, nil
}

// Workers returns the executor handles.
func (db *DB) Workers() []*Worker { return db.workers }

// LoadTable splits rows round-robin across workers as their initial local
// partitions (the pre-shuffle layout).
func (db *DB) LoadTable(name string, rows []Row) {
	for i, r := range rows {
		w := db.workers[i%len(db.workers)]
		w.Local[name] = append(w.Local[name], r)
	}
}

// rdma issues one verb from worker w and waits for completion.
func (w *Worker) rdma(op nic.Opcode, mr *verbs.MR, offset uint64, buf []byte) error {
	wrid := uint64(w.ID)<<56 | uint64(w.conn.QP.QPN())<<32 | w.db.opSeq()
	var err error
	if op == nic.OpRead {
		err = w.conn.QP.PostRead(wrid, buf, mr.Describe(offset), len(buf))
	} else {
		err = w.conn.QP.PostWrite(wrid, buf, mr.Describe(offset), len(buf))
	}
	if err != nil {
		return err
	}
	c, ok := w.conn.CQ.Await(wrid)
	if !ok {
		return errors.New("appdb: verb did not complete")
	}
	if c.Status != nic.StatusOK {
		return fmt.Errorf("appdb: verb failed: %v", c.Status)
	}
	return nil
}

func (db *DB) opSeq() uint64 {
	db.ops++
	return db.ops & 0xffffffff
}

// Shuffle hash-repartitions table so that after the call, worker
// hash(key)%N holds every row with that key. Data moves through the server:
// each worker writes the batches destined to worker d into d's staging
// area, then every worker reads its own staging area back. This is the
// network-intensive all-to-all the fingerprint attack sees as a plateau.
func (db *DB) Shuffle(table string) error {
	n := len(db.workers)
	for i := range db.stagingFill {
		db.stagingFill[i] = 0
	}
	// Write phase: partition and push batches.
	buf := make([]byte, BatchRows*RowBytes)
	for _, w := range db.workers {
		byDest := make([][]Row, n)
		for _, r := range w.Local[table] {
			d := int(r.Key % uint64(n))
			byDest[d] = append(byDest[d], r)
		}
		w.Local[table] = nil
		for d, rows := range byDest {
			for start := 0; start < len(rows); start += BatchRows {
				end := start + BatchRows
				if end > len(rows) {
					end = len(rows)
				}
				batch := rows[start:end]
				for i, r := range batch {
					encodeRow(r, buf[i*RowBytes:])
				}
				nbytes := uint64(len(batch) * RowBytes)
				off := db.stagingFill[d]
				if off+nbytes > db.staging[d].Size() {
					return errors.New("appdb: staging overflow")
				}
				if err := w.rdma(nic.OpWrite, db.staging[d], off, buf[:nbytes]); err != nil {
					return err
				}
				db.stagingFill[d] = off + nbytes
			}
		}
	}
	// Read phase: each worker ingests its partition.
	for _, w := range db.workers {
		fill := db.stagingFill[w.ID]
		rbuf := make([]byte, BatchRows*RowBytes)
		for off := uint64(0); off < fill; off += uint64(len(rbuf)) {
			chunk := uint64(len(rbuf))
			if off+chunk > fill {
				chunk = fill - off
			}
			if err := w.rdma(nic.OpRead, db.staging[w.ID], off, rbuf[:chunk]); err != nil {
				return err
			}
			for i := uint64(0); i < chunk; i += RowBytes {
				w.Local[table] = append(w.Local[table], decodeRow(rbuf[i:]))
			}
		}
	}
	return nil
}

// HashJoin joins two co-partitioned tables on key (run Shuffle on both
// first) and returns the total number of matching pairs. Each worker builds
// a hash table from its left partition, then probes its right partition in
// batches, re-reading probe batches from the server staging area to model
// the storage-backed probe stream — the bursty pattern the fingerprint
// attack sees as teeth.
func (db *DB) HashJoin(left, right string) (int, error) {
	total := 0
	buf := make([]byte, BatchRows*RowBytes)
	for _, w := range db.workers {
		build := make(map[uint64]int, len(w.Local[left]))
		for _, r := range w.Local[left] {
			build[r.Key]++
		}
		probe := w.Local[right]
		for start := 0; start < len(probe); start += BatchRows {
			end := start + BatchRows
			if end > len(probe) {
				end = len(probe)
			}
			batch := probe[start:end]
			// Stage the batch and read it back: the probe stream flows
			// through the storage server.
			for i, r := range batch {
				encodeRow(r, buf[i*RowBytes:])
			}
			nbytes := uint64(len(batch) * RowBytes)
			if err := w.rdma(nic.OpWrite, db.staging[w.ID], 0, buf[:nbytes]); err != nil {
				return 0, err
			}
			if err := w.rdma(nic.OpRead, db.staging[w.ID], 0, buf[:nbytes]); err != nil {
				return 0, err
			}
			for i := uint64(0); i < nbytes; i += RowBytes {
				r := decodeRow(buf[i:])
				total += build[r.Key]
			}
			// Compute gap between batches (hash probing, result
			// materialisation) — the idle half of each tooth.
			db.cluster.Eng.RunFor(3 * sim.Microsecond)
		}
	}
	return total, nil
}

// ---------------------------------------------------------------------------
// Traffic-phase schedules for the fingerprint experiment (Figure 12)
// ---------------------------------------------------------------------------

// Phase is a span of application traffic the fluid model replays.
type Phase struct {
	Name  string
	Flow  nic.FlowSpec
	Start sim.Duration
	Dur   sim.Duration
}

// ShufflePhases returns the plateau schedule: one sustained all-to-all
// phase of 4 KiB writes from every worker, lasting long enough to move
// dataMB megabytes at the NIC's write bandwidth.
func ShufflePhases(p nic.Profile, workers int, dataMB int, at sim.Duration) []Phase {
	flow := nic.FlowSpec{Name: "shuffle", Op: nic.OpWrite, MsgBytes: 4096, QPNum: workers * 2, Client: 0}
	bw := nic.Solo(p, flow).GoodputGbps // Gbps
	if bw <= 0 {
		bw = 1
	}
	seconds := float64(dataMB) * 8 / 1000 / bw
	return []Phase{{
		Name: "shuffle", Flow: flow,
		Start: at, Dur: sim.Duration(seconds * float64(sim.Second)),
	}}
}

// JoinPhases returns the tooth schedule: rounds of probe-batch reads
// separated by compute gaps.
func JoinPhases(p nic.Profile, workers int, rounds int, at sim.Duration) []Phase {
	flow := nic.FlowSpec{Name: "join", Op: nic.OpRead, MsgBytes: 4096, QPNum: workers, Client: 0}
	burst := 60 * sim.Millisecond
	gap := 60 * sim.Millisecond
	var phases []Phase
	for r := 0; r < rounds; r++ {
		phases = append(phases, Phase{
			Name: "join", Flow: flow,
			Start: at + sim.Duration(r)*(burst+gap), Dur: burst,
		})
	}
	return phases
}

// SortMergeJoin joins two co-partitioned tables by sorting both sides and
// merging — the classic alternative to the hash join, with a different
// network fingerprint: instead of probe-batch teeth, it streams both tables
// from the storage server in one sustained read phase before a pure-compute
// merge.
func (db *DB) SortMergeJoin(left, right string) (int, error) {
	total := 0
	buf := make([]byte, BatchRows*RowBytes)
	for _, w := range db.workers {
		// Stream both partitions through the staging area (the sorted runs
		// live in storage in a real external sort).
		stream := func(rows []Row) ([]Row, error) {
			out := make([]Row, 0, len(rows))
			for start := 0; start < len(rows); start += BatchRows {
				end := start + BatchRows
				if end > len(rows) {
					end = len(rows)
				}
				batch := rows[start:end]
				for i, r := range batch {
					encodeRow(r, buf[i*RowBytes:])
				}
				nbytes := uint64(len(batch) * RowBytes)
				if err := w.rdma(nic.OpWrite, db.staging[w.ID], 0, buf[:nbytes]); err != nil {
					return nil, err
				}
				if err := w.rdma(nic.OpRead, db.staging[w.ID], 0, buf[:nbytes]); err != nil {
					return nil, err
				}
				for i := uint64(0); i < nbytes; i += RowBytes {
					out = append(out, decodeRow(buf[i:]))
				}
			}
			return out, nil
		}
		l, err := stream(w.Local[left])
		if err != nil {
			return 0, err
		}
		r, err := stream(w.Local[right])
		if err != nil {
			return 0, err
		}
		sort.Slice(l, func(i, j int) bool { return l[i].Key < l[j].Key })
		sort.Slice(r, func(i, j int) bool { return r[i].Key < r[j].Key })
		// Merge-count matches; the merge itself is compute (one long gap).
		db.cluster.Eng.RunFor(sim.Duration(len(l)+len(r)) * 100 * sim.Nanosecond)
		i, j := 0, 0
		for i < len(l) && j < len(r) {
			switch {
			case l[i].Key < r[j].Key:
				i++
			case l[i].Key > r[j].Key:
				j++
			default:
				// Count the cross product of the equal-key runs.
				k := l[i].Key
				li, rj := i, j
				for i < len(l) && l[i].Key == k {
					i++
				}
				for j < len(r) && r[j].Key == k {
					j++
				}
				total += (i - li) * (j - rj)
			}
		}
	}
	return total, nil
}

// SortMergePhases returns the sort-merge join's traffic schedule: one
// sustained read phase (streaming both sorted runs) followed by silence
// (the in-memory merge). The read direction gives it a different contention
// depth from the shuffle's write plateau — the feature the fingerprint
// detector uses to tell them apart.
func SortMergePhases(p nic.Profile, workers int, dataMB int, at sim.Duration) []Phase {
	flow := nic.FlowSpec{Name: "sortmerge", Op: nic.OpRead, MsgBytes: 4096, QPNum: workers * 2, Client: 0}
	bw := nic.Solo(p, flow).GoodputGbps
	if bw <= 0 {
		bw = 1
	}
	seconds := float64(dataMB) * 8 / 1000 / bw
	return []Phase{{
		Name: "sortmerge", Flow: flow,
		Start: at, Dur: sim.Duration(seconds * float64(sim.Second)),
	}}
}
