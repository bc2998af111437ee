// Package appdisagg implements the disaggregated-memory substrate of
// Section VI-B: a memory server (MS) exporting pinned memory, compute
// servers (CS) that access it only through RDMA verbs, and a Sherman-style
// write-optimised remote B+ tree index over 64 B key-value entries
// (Wang et al., SIGMOD 2022). The Ragnar snoop attack targets a victim
// whose index lookups touch secret offsets of the shared region; the tree
// here is the realistic generator of exactly those accesses.
package appdisagg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Tree geometry. Nodes are fixed 1 KiB blocks in the memory server;
// entries are the paper's 64 B KV units.
const (
	NodeBytes  = 1024
	EntryBytes = 64
	// Fanout: entries per node. One 64 B slot is reserved for the header.
	Fanout = NodeBytes/EntryBytes - 1 // 15
	// ValueBytes is the value payload per entry (key and flags use 16 B).
	ValueBytes = EntryBytes - 16
)

// node header layout (64 B slot 0):
//
//	[0:8)  version (odd = write-locked)
//	[8:16) entry count
//	[16:24) leaf flag
//	[24:32) right-sibling node id + 1 (0 = none)
type header struct {
	version uint64
	count   uint64
	leaf    bool
	right   uint64 // node id + 1
}

// entry layout (64 B):
//
//	[0:8)  key
//	[8:16) child node id + 1 (interior) or presence flag (leaf)
//	[16:64) value bytes (leaf only)
type entry struct {
	key   uint64
	ref   uint64
	value [ValueBytes]byte
}

// MemoryServer owns the exported region. All state lives in the region's
// bytes — the server CPU never touches it after setup, exactly the
// disaggregated-memory contract.
type MemoryServer struct {
	MR       *verbs.MR
	capacity int // nodes
}

// NewMemoryServer registers size bytes of index memory on the lab cluster's
// server.
func NewMemoryServer(c *lab.Cluster, size uint64) (*MemoryServer, error) {
	mr, err := c.RegisterServerMR(size)
	if err != nil {
		return nil, err
	}
	ms := &MemoryServer{MR: mr, capacity: int(mr.Size() / NodeBytes)}
	// Node 0 is the allocator cell; node 1 the root (leaf, empty).
	// Bootstrap directly in server memory (setup happens before clients
	// connect, like Sherman's initialisation).
	b := mr.Bytes()
	binary.LittleEndian.PutUint64(b[0:], 2) // next free node id
	rootOff := 1 * NodeBytes
	binary.LittleEndian.PutUint64(b[rootOff+0:], 2)  // version 2 (unlocked)
	binary.LittleEndian.PutUint64(b[rootOff+8:], 0)  // count
	binary.LittleEndian.PutUint64(b[rootOff+16:], 1) // leaf
	binary.LittleEndian.PutUint64(b[rootOff+24:], 0) // no sibling
	return ms, nil
}

// RootNode is the fixed node id of the tree root.
const RootNode = 1

// NodeOffset returns the byte offset of a node in the MR — the quantity the
// Ragnar snoop recovers.
func NodeOffset(nodeID uint64) uint64 { return nodeID * NodeBytes }

// Client is a compute-server handle to the remote tree. Every operation
// issues real verbs; nothing is cached locally except the root id (Sherman
// caches internal nodes; a path cache is modelled by optional reuse of the
// last traversal).
type Client struct {
	conn *lab.Conn
	ms   *MemoryServer

	// PathCache keeps the last root->leaf path, Sherman's optimisation that
	// turns most lookups into a single leaf read.
	PathCache bool
	lastPath  []uint64 // node ids, root first
	// Reads and Writes count issued verbs (for tests and fingerprints).
	Reads, Writes uint64
}

// NewClient connects a compute server (lab client index) to the memory
// server.
func NewClient(c *lab.Cluster, ms *MemoryServer, clientIdx int) (*Client, error) {
	conn, err := c.Dial(clientIdx, 16)
	if err != nil {
		return nil, err
	}
	if err := c.Warm(conn, ms.MR); err != nil {
		return nil, err
	}
	return &Client{conn: conn, ms: ms}, nil
}

// rdma runs one read or write and waits for its completion.
func (cl *Client) rdma(op nic.Opcode, offset uint64, buf []byte) error {
	target := cl.ms.MR.Describe(offset)
	wrid := cl.Reads + cl.Writes + 1<<48
	var err error
	if op == nic.OpRead {
		cl.Reads++
		err = cl.conn.QP.PostRead(wrid, buf, target, len(buf))
	} else {
		cl.Writes++
		err = cl.conn.QP.PostWrite(wrid, buf, target, len(buf))
	}
	if err != nil {
		return err
	}
	c, ok := cl.conn.CQ.Await(wrid)
	if !ok {
		return errors.New("appdisagg: verb did not complete")
	}
	if c.Status != nic.StatusOK {
		return fmt.Errorf("appdisagg: verb failed: %v", c.Status)
	}
	return nil
}

func (cl *Client) readNode(id uint64, raw []byte) error {
	return cl.rdma(nic.OpRead, NodeOffset(id), raw[:NodeBytes])
}

func parseHeader(raw []byte) header {
	return header{
		version: binary.LittleEndian.Uint64(raw[0:]),
		count:   binary.LittleEndian.Uint64(raw[8:]),
		leaf:    binary.LittleEndian.Uint64(raw[16:]) == 1,
		right:   binary.LittleEndian.Uint64(raw[24:]),
	}
}

func putHeader(raw []byte, h header) {
	binary.LittleEndian.PutUint64(raw[0:], h.version)
	binary.LittleEndian.PutUint64(raw[8:], h.count)
	leaf := uint64(0)
	if h.leaf {
		leaf = 1
	}
	binary.LittleEndian.PutUint64(raw[16:], leaf)
	binary.LittleEndian.PutUint64(raw[24:], h.right)
}

func parseEntry(raw []byte, i int) entry {
	off := (i + 1) * EntryBytes
	var e entry
	e.key = binary.LittleEndian.Uint64(raw[off:])
	e.ref = binary.LittleEndian.Uint64(raw[off+8:])
	copy(e.value[:], raw[off+16:off+EntryBytes])
	return e
}

func putEntry(raw []byte, i int, e entry) {
	off := (i + 1) * EntryBytes
	binary.LittleEndian.PutUint64(raw[off:], e.key)
	binary.LittleEndian.PutUint64(raw[off+8:], e.ref)
	copy(raw[off+16:off+EntryBytes], e.value[:])
}

// descend walks from the root to the leaf covering key, reading each node
// over RDMA. It returns the leaf id and its raw bytes, recording the path.
func (cl *Client) descend(key uint64) (uint64, []byte, error) {
	raw := make([]byte, NodeBytes)
	id := uint64(RootNode)
	var path []uint64
	for {
		if err := cl.readNode(id, raw); err != nil {
			return 0, nil, err
		}
		path = append(path, id)
		h := parseHeader(raw)
		if h.leaf {
			cl.lastPath = path
			return id, raw, nil
		}
		// Interior: entries are separator keys; child i covers keys < key_i.
		next := uint64(0)
		for i := 0; i < int(h.count); i++ {
			e := parseEntry(raw, i)
			if key < e.key {
				next = e.ref
				break
			}
		}
		if next == 0 {
			// Greater than all separators: rightmost child is stored in the
			// last entry's value slot convention (ref of count-th entry).
			e := parseEntry(raw, int(h.count))
			next = e.ref
		}
		if next == 0 {
			return 0, nil, errors.New("appdisagg: corrupt interior node")
		}
		id = next - 1
	}
}

// leafFor resolves the leaf for key, using the path cache when enabled.
func (cl *Client) leafFor(key uint64) (uint64, []byte, error) {
	if cl.PathCache && len(cl.lastPath) > 0 {
		// Optimistically re-read the cached leaf; fall back to a full
		// descent if the key is out of its range.
		leaf := cl.lastPath[len(cl.lastPath)-1]
		raw := make([]byte, NodeBytes)
		if err := cl.readNode(leaf, raw); err != nil {
			return 0, nil, err
		}
		h := parseHeader(raw)
		if h.leaf && cl.leafCovers(raw, h, key) {
			return leaf, raw, nil
		}
	}
	return cl.descend(key)
}

// leafCovers reports whether key falls in the leaf's key range.
func (cl *Client) leafCovers(raw []byte, h header, key uint64) bool {
	if h.count == 0 {
		return false
	}
	first := parseEntry(raw, 0).key
	last := parseEntry(raw, int(h.count)-1).key
	return key >= first && key <= last
}

// Get looks up key, returning its value and whether it exists.
func (cl *Client) Get(key uint64) ([ValueBytes]byte, bool, error) {
	var zero [ValueBytes]byte
	_, raw, err := cl.leafFor(key)
	if err != nil {
		return zero, false, err
	}
	h := parseHeader(raw)
	for i := 0; i < int(h.count); i++ {
		e := parseEntry(raw, i)
		if e.key == key && e.ref == 1 {
			return e.value, true, nil
		}
	}
	return zero, false, nil
}

// Insert adds or updates key with value. Writes take the node's version
// lock (odd = locked) via write-modify-write, Sherman's optimistic scheme
// compressed to the simulation's single-client-at-a-time semantics.
func (cl *Client) Insert(key uint64, value [ValueBytes]byte) error {
	leaf, raw, err := cl.descend(key)
	if err != nil {
		return err
	}
	h := parseHeader(raw)
	// Update in place?
	for i := 0; i < int(h.count); i++ {
		e := parseEntry(raw, i)
		if e.key == key {
			e.value = value
			e.ref = 1
			putEntry(raw, i, e)
			return cl.writeBack(leaf, raw, h)
		}
	}
	if int(h.count) >= Fanout-1 {
		if err := cl.splitLeaf(leaf, raw, append([]uint64(nil), cl.lastPath...)); err != nil {
			return err
		}
		return cl.Insert(key, value)
	}
	// Sorted insert.
	pos := 0
	for pos < int(h.count) && parseEntry(raw, pos).key < key {
		pos++
	}
	for i := int(h.count); i > pos; i-- {
		putEntry(raw, i, parseEntry(raw, i-1))
	}
	putEntry(raw, pos, entry{key: key, ref: 1, value: value})
	h.count++
	return cl.writeBack(leaf, raw, h)
}

// writeBack bumps the version and writes the node in one RDMA Write
// (Sherman's write-optimised single-round-trip update).
func (cl *Client) writeBack(id uint64, raw []byte, h header) error {
	h.version += 2
	putHeader(raw, h)
	return cl.rdma(nic.OpWrite, NodeOffset(id), raw[:NodeBytes])
}

// allocNode bumps the remote allocator cell. A fetch-add on the allocator
// word is the real Sherman protocol; the simulation's clients are
// cooperative, so a read-modify-write suffices and still costs the same
// verbs.
func (cl *Client) allocNode() (uint64, error) {
	cell := make([]byte, 8)
	if err := cl.rdma(nic.OpRead, 0, cell); err != nil {
		return 0, err
	}
	id := binary.LittleEndian.Uint64(cell)
	if int(id) >= cl.ms.capacity {
		return 0, errors.New("appdisagg: memory server full")
	}
	binary.LittleEndian.PutUint64(cell, id+1)
	if err := cl.rdma(nic.OpWrite, 0, cell); err != nil {
		return 0, err
	}
	return id, nil
}

// splitLeaf splits a full leaf and installs the separator in the parent
// chain (path is the root-to-leaf node list from the triggering descent).
func (cl *Client) splitLeaf(leaf uint64, raw []byte, path []uint64) error {
	h := parseHeader(raw)
	newID, err := cl.allocNode()
	if err != nil {
		return err
	}
	mid := int(h.count) / 2
	sepKey := parseEntry(raw, mid).key

	// Right node takes the upper half.
	right := make([]byte, NodeBytes)
	rh := header{version: 2, count: uint64(int(h.count) - mid), leaf: true, right: h.right}
	for i := mid; i < int(h.count); i++ {
		putEntry(right, i-mid, parseEntry(raw, i))
	}
	putHeader(right, rh)
	if err := cl.rdma(nic.OpWrite, NodeOffset(newID), right); err != nil {
		return err
	}

	// Left keeps the lower half and points right.
	h.count = uint64(mid)
	h.right = newID + 1
	if err := cl.writeBack(leaf, raw, h); err != nil {
		return err
	}
	return cl.insertSeparator(path[:len(path)-1], leaf, newID, sepKey)
}

// maxSeparators caps the separators in an interior node, leaving room for
// the rightmost-child slot.
const maxSeparators = Fanout - 2

// insertSeparator installs (sepKey -> rightChild) into the parent at the end
// of path (empty path means the split child was the root). Full parents
// split recursively, growing the tree upward exactly like a textbook B+
// tree — every node touch is a real RDMA verb.
func (cl *Client) insertSeparator(path []uint64, leftChild, rightChild uint64, sepKey uint64) error {
	if len(path) == 0 {
		// The split node was the root: move its (already rewritten) content
		// aside and build a fresh interior root in place. The moved copy
		// becomes the left child.
		raw := make([]byte, NodeBytes)
		if err := cl.readNode(leftChild, raw); err != nil {
			return err
		}
		moved := leftChild
		if leftChild == RootNode {
			movedID, err := cl.allocNode()
			if err != nil {
				return err
			}
			if err := cl.rdma(nic.OpWrite, NodeOffset(movedID), raw[:NodeBytes]); err != nil {
				return err
			}
			moved = movedID
		}
		root := make([]byte, NodeBytes)
		nh := header{version: 2, count: 1, leaf: false}
		putEntry(root, 0, entry{key: sepKey, ref: moved + 1})
		putEntry(root, 1, entry{ref: rightChild + 1})
		putHeader(root, nh)
		return cl.rdma(nic.OpWrite, NodeOffset(RootNode), root)
	}

	parent := path[len(path)-1]
	raw := make([]byte, NodeBytes)
	if err := cl.readNode(parent, raw); err != nil {
		return err
	}
	h := parseHeader(raw)
	if int(h.count) >= maxSeparators {
		if err := cl.splitInterior(parent, raw, path[:len(path)-1]); err != nil {
			return err
		}
		// The split may have deepened or reshaped the tree; re-locate the
		// node that now holds the pointer to leftChild and insert there.
		// sepKey-1 routes into the left child (separators are strictly
		// greater than every key below the left child).
		newPath, err := cl.findParentOf(leftChild, sepKey-1)
		if err != nil {
			return err
		}
		return cl.insertSeparator(newPath, leftChild, rightChild, sepKey)
	}
	pos := 0
	for pos < int(h.count) && parseEntry(raw, pos).key < sepKey {
		pos++
	}
	// Shift entries right, including the rightmost-child slot.
	for i := int(h.count); i >= pos; i-- {
		putEntry(raw, i+1, parseEntry(raw, i))
	}
	putEntry(raw, pos, entry{key: sepKey, ref: leftChild + 1})
	// The entry after the new separator must point at the right child.
	after := parseEntry(raw, pos+1)
	after.ref = rightChild + 1
	putEntry(raw, pos+1, after)
	h.count++
	return cl.writeBack(parent, raw, h)
}

// splitInterior splits a full interior node, promoting its middle separator
// into the parent above (recursively).
func (cl *Client) splitInterior(id uint64, raw []byte, path []uint64) error {
	h := parseHeader(raw)
	c := int(h.count)
	mid := c / 2
	promote := parseEntry(raw, mid).key

	newID, err := cl.allocNode()
	if err != nil {
		return err
	}
	// Right node: separators mid+1..c-1 plus the old rightmost child.
	right := make([]byte, NodeBytes)
	rh := header{version: 2, count: uint64(c - mid - 1), leaf: false}
	for i := mid + 1; i < c; i++ {
		putEntry(right, i-mid-1, parseEntry(raw, i))
	}
	putEntry(right, c-mid-1, parseEntry(raw, c)) // rightmost child slot
	putHeader(right, rh)
	if err := cl.rdma(nic.OpWrite, NodeOffset(newID), right); err != nil {
		return err
	}
	// Left node keeps separators 0..mid-1; its rightmost child becomes the
	// promoted separator's child.
	midChild := parseEntry(raw, mid).ref
	putEntry(raw, mid, entry{ref: midChild})
	h.count = uint64(mid)
	if err := cl.writeBack(id, raw, h); err != nil {
		return err
	}
	return cl.insertSeparator(path, id, newID, promote)
}

// findParentOf descends along routeKey and returns the ancestor path of the
// node directly pointing at child (the path excludes child itself).
func (cl *Client) findParentOf(child uint64, routeKey uint64) ([]uint64, error) {
	raw := make([]byte, NodeBytes)
	id := uint64(RootNode)
	var path []uint64
	for {
		if err := cl.readNode(id, raw); err != nil {
			return nil, err
		}
		path = append(path, id)
		h := parseHeader(raw)
		if h.leaf {
			return nil, errors.New("appdisagg: parent of split child not found")
		}
		next := uint64(0)
		for i := 0; i < int(h.count); i++ {
			if routeKey < parseEntry(raw, i).key {
				next = parseEntry(raw, i).ref
				break
			}
		}
		if next == 0 {
			next = parseEntry(raw, int(h.count)).ref
		}
		if next == 0 {
			return nil, errors.New("appdisagg: corrupt interior node")
		}
		if next-1 == child {
			return path, nil
		}
		id = next - 1
	}
}

// Scan returns up to max entries with key >= from, following leaf sibling
// links.
func (cl *Client) Scan(from uint64, max int) ([]uint64, error) {
	_, raw, err := cl.descend(from)
	if err != nil {
		return nil, err
	}
	var keys []uint64
	for {
		h := parseHeader(raw)
		for i := 0; i < int(h.count) && len(keys) < max; i++ {
			e := parseEntry(raw, i)
			if e.key >= from && e.ref == 1 {
				keys = append(keys, e.key)
			}
		}
		if len(keys) >= max || h.right == 0 {
			return keys, nil
		}
		if err := cl.readNode(h.right-1, raw); err != nil {
			return nil, err
		}
	}
}

// LeafOffsetOf resolves the MR byte offset of the leaf holding key — the
// secret the Ragnar snoop recovers from the victim's traffic.
func (cl *Client) LeafOffsetOf(key uint64) (uint64, error) {
	leaf, _, err := cl.descend(key)
	if err != nil {
		return 0, err
	}
	return NodeOffset(leaf), nil
}

// Delete removes key from the index, returning whether it existed. Sherman
// deletes in place with a presence flag (leaves are never merged — remote
// memory reclamation is deferred), so a delete costs one descent plus one
// write-back.
func (cl *Client) Delete(key uint64) (bool, error) {
	leaf, raw, err := cl.leafFor(key)
	if err != nil {
		return false, err
	}
	h := parseHeader(raw)
	for i := 0; i < int(h.count); i++ {
		e := parseEntry(raw, i)
		if e.key == key && e.ref == 1 {
			e.ref = 0 // tombstone
			putEntry(raw, i, e)
			return true, cl.writeBack(leaf, raw, h)
		}
	}
	return false, nil
}
