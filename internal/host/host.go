// Package host models the server side of an RDMA deployment at the fidelity
// the Ragnar experiments need: physical memory with page-granular
// allocation (4 KiB regular or 2 MiB huge pages), NUMA domains with
// asymmetric DRAM latency, DDIO (direct cache access for inbound DMA) and
// CPU core binding. Memory registered for RDMA is pinned so the NIC data
// path never takes a page fault, exactly as libibverbs does.
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
	Name      string
	Processor string
	NUMANodes int
	Cores     int
	// DRAMLatency is the local-node load-to-use latency.
	DRAMLatency sim.Duration
	// NUMAPenalty is added per remote-node access.
	NUMAPenalty sim.Duration
	// LLCLatency is the last-level-cache hit latency (used with DDIO).
	LLCLatency sim.Duration
	// RAMBytes bounds total allocatable memory.
	RAMBytes uint64
	// DDIO enables direct cache access for device writes. The Grain-III/IV
	// setup disables it to remove cache-induced latency variance.
	DDIO bool
}

// H1, H2 and H3 reproduce Table II's hosts. Latencies are typical for the
// listed processors; only their relative effect matters to the attacks.
var (
	H1 = Config{Name: "H1", Processor: "AMD EPYC 9554", NUMANodes: 4, Cores: 64,
		DRAMLatency: 95 * sim.Nanosecond, NUMAPenalty: 50 * sim.Nanosecond,
		LLCLatency: 14 * sim.Nanosecond, RAMBytes: 755 << 30}
	H2 = Config{Name: "H2", Processor: "Intel Xeon Silver 4314", NUMANodes: 2, Cores: 16,
		DRAMLatency: 85 * sim.Nanosecond, NUMAPenalty: 60 * sim.Nanosecond,
		LLCLatency: 16 * sim.Nanosecond, RAMBytes: 256 << 30}
	H3 = Config{Name: "H3", Processor: "Intel Xeon Platinum 8480+", NUMANodes: 2, Cores: 56,
		DRAMLatency: 90 * sim.Nanosecond, NUMAPenalty: 55 * sim.Nanosecond,
		LLCLatency: 15 * sim.Nanosecond, RAMBytes: 1 << 40}
)

// Host is a simulated server: an address space carved into pinned regions
// plus the processor attributes the NIC model consults.
type Host struct {
	cfg    Config
	eng    *sim.Engine
	next   uint64 // physical allocation cursor
	allocs []*Region
	used   uint64
}

// New creates a host attached to the simulation engine.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.NUMANodes < 1 {
		cfg.NUMANodes = 1
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	// Leave physical page zero unused so address 0 never appears.
	return &Host{cfg: cfg, eng: eng, next: uint64(Page2M)}
}

// Config returns the host's configuration.
func (h *Host) Config() Config { return h.cfg }

// Region is a pinned, physically contiguous allocation. The simulation keeps
// real backing bytes so application code (B+ tree, database pages) reads and
// writes true data through the RDMA path. The bytes are backed lazily: Alloc
// only reserves the range, and the backing appears on the first WriteAt or
// Bytes call. Until then the region reads as zeros, so a region that is
// only ever read (a covert channel's MR) never costs its size in host
// memory or zeroing time. The pinned size is accounted at Alloc either way.
type Region struct {
	host  *Host
	base  uint64 // physical base address
	size  uint64
	page  PageSize
	numa  int
	data  []byte // nil until backed
	freed bool
}

// Alloc pins size bytes on the given NUMA node with the given page size.
// The base address is aligned to the page size.
func (h *Host) Alloc(size uint64, page PageSize, numa int) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("host %s: zero-size allocation", h.cfg.Name)
	}
	if numa < 0 || numa >= h.cfg.NUMANodes {
		return nil, fmt.Errorf("host %s: NUMA node %d out of range [0,%d)", h.cfg.Name, numa, h.cfg.NUMANodes)
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
	r := &Region{host: h, base: base, size: alignedSize, page: page, numa: numa}
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

// Page returns the page granule backing the region.
func (r *Region) Page() PageSize { return r.page }

// NUMA returns the region's NUMA node.
func (r *Region) NUMA() int { return r.numa }

// Bytes exposes the backing storage for direct host-side access, backing
// the region first if nothing has yet. A freed region has none: Bytes is
// nil. Code that will write the region on a timed path should call Bytes
// when it sets the region up, so the backing is not made mid-run.
func (r *Region) Bytes() []byte {
	if r.data == nil && !r.freed {
		r.data = make([]byte, r.size)
	}
	return r.data
}

// ReadAt copies len(p) bytes starting at offset into p; an unbacked region
// reads as zeros. Every access to a freed region fails.
func (r *Region) ReadAt(offset uint64, p []byte) error {
	if r.freed {
		return fmt.Errorf("host: read at %d of a freed region", offset)
	}
	if offset+uint64(len(p)) > r.size {
		return fmt.Errorf("host: read [%d,%d) outside region of %d bytes", offset, offset+uint64(len(p)), r.size)
	}
	if r.data == nil {
		clear(p)
		return nil
	}
	copy(p, r.data[offset:])
	return nil
}

// WriteAt copies p into the region starting at offset, backing the region
// first if needed. Every access to a freed region fails.
func (r *Region) WriteAt(offset uint64, p []byte) error {
	if r.freed {
		return fmt.Errorf("host: write at %d of a freed region", offset)
	}
	if offset+uint64(len(p)) > r.size {
		return fmt.Errorf("host: write [%d,%d) outside region of %d bytes", offset, offset+uint64(len(p)), r.size)
	}
	copy(r.Bytes()[offset:], p)
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

// MemAccessLatency returns the latency for a DMA of one cache line touching
// the region: LLC hit latency when DDIO is enabled (inbound writes land in
// cache), DRAM plus a possible NUMA penalty otherwise. nicNUMA is the NUMA
// node the NIC is attached to.
func (h *Host) MemAccessLatency(r *Region, nicNUMA int) sim.Duration {
	if h.cfg.DDIO {
		return h.cfg.LLCLatency
	}
	lat := h.cfg.DRAMLatency
	if r != nil && r.numa != nicNUMA {
		lat += h.cfg.NUMAPenalty
	}
	return lat
}

// Used reports currently pinned bytes.
func (h *Host) Used() uint64 { return h.used }
