// Package host models the server side of an RDMA deployment at the fidelity
// the Ragnar experiments need: physical memory with page-granular
// allocation (4 KiB regular or 2 MiB huge pages) and one DRAM latency for
// every DMA. Memory registered for RDMA is pinned so the NIC data path never
// takes a page fault, exactly as libibverbs does. Every host is the paper's
// testbed (Tables II and IV): DDIO is off, and the NIC and every region it
// touches sit on one NUMA node, so no DMA hits the LLC or pays a
// remote-node penalty.
package host

import (
	"fmt"
	"sort"

	"github.com/thu-has/ragnar/internal/sim"
)

// PageSize selects the translation granule for an allocation.
type PageSize int

const (
	// Page4K is the regular 4 KiB page.
	Page4K PageSize = 4 << 10
	// Page2M is the 2 MiB huge page used by all Grain-III/IV experiments
	// (the paper pins MRs on huge pages to exclude PTE-walk artefacts).
	Page2M PageSize = 2 << 20
)

// Config describes one host from Table II.
type Config struct {
	Name string
	// DRAMLatency is the load-to-use latency of the NIC's NUMA node.
	DRAMLatency sim.Duration
	// RAMBytes bounds total allocatable memory.
	RAMBytes uint64
}

// H2 and H3 reproduce Table II's client (Intel Xeon Silver 4314) and server
// (Intel Xeon Platinum 8480+) hosts. Latencies are typical for those
// processors; only their relative effect matters to the attacks.
var (
	H2 = Config{Name: "H2", DRAMLatency: 85 * sim.Nanosecond, RAMBytes: 256 << 30}
	H3 = Config{Name: "H3", DRAMLatency: 90 * sim.Nanosecond, RAMBytes: 1 << 40}
)

// Host is a simulated server: an address space carved into pinned regions
// plus the memory latency the NIC model consults.
type Host struct {
	cfg    Config
	next   uint64 // physical allocation cursor
	allocs []*Region
	used   uint64
}

// New creates a host.
func New(cfg Config) *Host {
	// Leave physical page zero unused so address 0 never appears.
	return &Host{cfg: cfg, next: uint64(Page2M)}
}

// Config returns the host's configuration.
func (h *Host) Config() Config { return h.cfg }

// Region is a pinned, physically contiguous allocation. The simulation keeps
// real backing bytes so application code (B+ tree, database pages) reads and
// writes true data through the RDMA path. The bytes are backed lazily: Alloc
// only reserves the range, and until something backs it the region reads as
// zeros, so a region that is only ever read (a covert channel's MR) never
// costs its size in host memory or zeroing time. The pinned size is
// accounted at Alloc either way.
//
// Span backs a prefix [0, off+n) and nothing past it: a caller that uses the
// start of a large region (an NVMe-oF initiator's slots in a 2 MiB huge
// page) pays only for that. Bytes past the backed prefix read as zeros. A
// WriteAt past the prefix, or Bytes, backs the whole region, after which the
// backing never moves again. Growing the backing moves it, so a caller takes
// a Span where it uses the bytes rather than keeping one.
type Region struct {
	base  uint64 // physical base address
	size  uint64
	data  []byte // backing for [0, len(data)): nil, a Span'd prefix or all
	freed bool
}

// Alloc pins size bytes with the given page size. The base address is
// aligned to the page size.
func (h *Host) Alloc(size uint64, page PageSize) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("host %s: zero-size allocation", h.cfg.Name)
	}
	if page != Page4K && page != Page2M {
		return nil, fmt.Errorf("host %s: unsupported page size %d", h.cfg.Name, page)
	}
	ps := uint64(page)
	alignedSize := (size + ps - 1) / ps * ps
	if h.used+alignedSize > h.cfg.RAMBytes {
		return nil, fmt.Errorf("host %s: out of memory (%d used, %d requested, %d total)",
			h.cfg.Name, h.used, alignedSize, h.cfg.RAMBytes)
	}
	base := (h.next + ps - 1) / ps * ps
	h.next = base + alignedSize
	h.used += alignedSize
	r := &Region{base: base, size: alignedSize}
	// Bases only grow, so appending keeps allocs sorted for Lookup.
	h.allocs = append(h.allocs, r)
	return r, nil
}

// Free unpins the region and drops its backing: later ReadAt and WriteAt
// calls fail. Its address range is not recycled (monotone allocation keeps
// experiment addresses stable across runs).
func (h *Host) Free(r *Region) {
	for i, a := range h.allocs {
		if a == r {
			h.allocs = append(h.allocs[:i], h.allocs[i+1:]...)
			h.used -= r.size
			r.data, r.freed = nil, true
			return
		}
	}
}

// Base returns the region's physical base address.
func (r *Region) Base() uint64 { return r.base }

// Size returns the pinned size in bytes.
func (r *Region) Size() uint64 { return r.size }

// back grows the backing to cover at least [0, end), end <= r.size; the
// bytes already backed move with it. It is a no-op on a freed region.
func (r *Region) back(end uint64) {
	if end <= uint64(len(r.data)) || r.freed {
		return
	}
	data := make([]byte, end)
	copy(data, r.data)
	r.data = data
}

// Bytes exposes the backing storage of the whole region for direct
// host-side access, backing all of it first; from then on the backing never
// moves. A freed region has none: Bytes is nil. Code that will write the
// region on a timed path should back it when it sets the region up (Bytes,
// or Span for the part it uses), so the backing is not made mid-run.
func (r *Region) Bytes() []byte {
	r.back(r.size)
	return r.data
}

// Span backs the region up to off+n and returns those n bytes at off,
// without backing the rest. Once [0, off+n) is backed, Span allocates
// nothing. The slice aliases the backing only until the backing grows (a
// Span past the prefix, a WriteAt past it, or Bytes), so take it where the
// bytes are used. A freed region has no bytes: Span is nil.
func (r *Region) Span(off, n uint64) []byte {
	if r.freed {
		return nil
	}
	if off+n > r.size {
		panic(fmt.Sprintf("host: span [%d,%d) outside region of %d bytes", off, off+n, r.size))
	}
	r.back(off + n)
	return r.data[off : off+n : off+n]
}

// ReadAt copies len(p) bytes starting at offset into p; bytes past the
// backing read as zeros. Every access to a freed region fails.
func (r *Region) ReadAt(offset uint64, p []byte) error {
	if r.freed {
		return fmt.Errorf("host: read at %d of a freed region", offset)
	}
	if offset+uint64(len(p)) > r.size {
		return fmt.Errorf("host: read [%d,%d) outside region of %d bytes", offset, offset+uint64(len(p)), r.size)
	}
	n := 0
	if offset < uint64(len(r.data)) {
		n = copy(p, r.data[offset:])
	}
	clear(p[n:])
	return nil
}

// WriteAt copies p into the region starting at offset, backing the whole
// region first if p reaches past the backed prefix. Every access to a freed
// region fails.
func (r *Region) WriteAt(offset uint64, p []byte) error {
	if r.freed {
		return fmt.Errorf("host: write at %d of a freed region", offset)
	}
	end := offset + uint64(len(p))
	if end > r.size {
		return fmt.Errorf("host: write [%d,%d) outside region of %d bytes", offset, end, r.size)
	}
	if end > uint64(len(r.data)) {
		r.back(r.size)
	}
	copy(r.data[offset:], p)
	return nil
}

// Lookup resolves a physical address to its region, or nil if unmapped.
func (h *Host) Lookup(addr uint64) *Region {
	i := sort.Search(len(h.allocs), func(i int) bool { return h.allocs[i].base+h.allocs[i].size > addr })
	if i < len(h.allocs) && addr >= h.allocs[i].base {
		return h.allocs[i]
	}
	return nil
}

// MemAccessLatency returns the memory latency of one DMA: the DRAM
// latency, since with DDIO off inbound writes bypass the cache, and every
// region sits on the NIC's NUMA node.
func (h *Host) MemAccessLatency() sim.Duration { return h.cfg.DRAMLatency }

// Used reports currently pinned bytes.
func (h *Host) Used() uint64 { return h.used }
