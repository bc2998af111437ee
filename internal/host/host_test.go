package host

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/thu-has/ragnar/internal/sim"
)

func newTestHost() *Host {
	return New(sim.NewEngine(1), H2)
}

func TestAllocAlignment(t *testing.T) {
	h := newTestHost()
	r, err := h.Alloc(1<<20, Page2M, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base()%uint64(Page2M) != 0 {
		t.Fatalf("base %#x not 2M-aligned", r.Base())
	}
	if r.Size() != uint64(Page2M) {
		t.Fatalf("size = %d, want rounded up to 2M", r.Size())
	}
	if r.Base() == 0 {
		t.Fatal("region must not start at physical 0")
	}
}

func TestAlloc4K(t *testing.T) {
	h := newTestHost()
	r, err := h.Alloc(100, Page4K, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != uint64(Page4K) {
		t.Fatalf("size = %d", r.Size())
	}
}

func TestAllocErrors(t *testing.T) {
	h := newTestHost()
	if _, err := h.Alloc(0, Page4K, 0); err == nil {
		t.Fatal("zero size should error")
	}
	if _, err := h.Alloc(100, Page4K, 99); err == nil {
		t.Fatal("bad NUMA node should error")
	}
	if _, err := h.Alloc(100, PageSize(123), 0); err == nil {
		t.Fatal("bad page size should error")
	}
	if _, err := h.Alloc(h.Config().RAMBytes+1, Page2M, 0); err == nil {
		t.Fatal("oversized allocation should error")
	}
}

func TestReadWriteAt(t *testing.T) {
	h := newTestHost()
	r, _ := h.Alloc(4096, Page4K, 0)
	msg := []byte("sherman-kv-entry")
	if err := r.WriteAt(64, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := r.ReadAt(64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	if err := r.WriteAt(r.Size()-1, []byte{1, 2}); err == nil {
		t.Fatal("overflowing write should error")
	}
	if err := r.ReadAt(r.Size(), make([]byte, 1)); err == nil {
		t.Fatal("out-of-range read should error")
	}
}

func TestLookup(t *testing.T) {
	h := newTestHost()
	a, _ := h.Alloc(4096, Page4K, 0)
	b, _ := h.Alloc(4096, Page4K, 1)
	if h.Lookup(a.Base()) != a {
		t.Fatal("lookup of a.base failed")
	}
	if h.Lookup(a.Base()+4095) != a {
		t.Fatal("lookup of a tail failed")
	}
	if h.Lookup(b.Base()) != b {
		t.Fatal("lookup of b failed")
	}
	if h.Lookup(0) != nil {
		t.Fatal("address 0 should be unmapped")
	}
	if h.Lookup(b.Base()+b.Size()) != nil {
		t.Fatal("past-the-end should be unmapped")
	}
}

func TestFree(t *testing.T) {
	h := newTestHost()
	r, _ := h.Alloc(4096, Page4K, 0)
	used := h.Used()
	h.Free(r)
	if h.Used() != used-4096 {
		t.Fatalf("used = %d after free", h.Used())
	}
	if h.Lookup(r.Base()) != nil {
		t.Fatal("freed region still mapped")
	}
	h.Free(r) // double free is a no-op
}

func TestMemAccessLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := H2
	cfg.DDIO = false
	h := New(eng, cfg)
	local, _ := h.Alloc(4096, Page4K, 0)
	remote, _ := h.Alloc(4096, Page4K, 1)
	if got := h.MemAccessLatency(local, 0); got != cfg.DRAMLatency {
		t.Fatalf("local latency = %v", got)
	}
	if got := h.MemAccessLatency(remote, 0); got != cfg.DRAMLatency+cfg.NUMAPenalty {
		t.Fatalf("cross-NUMA latency = %v", got)
	}

	cfg.DDIO = true
	h2 := New(eng, cfg)
	r, _ := h2.Alloc(4096, Page4K, 0)
	if got := h2.MemAccessLatency(r, 1); got != cfg.LLCLatency {
		t.Fatalf("DDIO latency = %v", got)
	}
}

func TestTableIIHosts(t *testing.T) {
	for _, cfg := range []Config{H1, H2, H3} {
		if cfg.RAMBytes == 0 || cfg.Cores == 0 || cfg.NUMANodes == 0 {
			t.Fatalf("host %s incompletely specified", cfg.Name)
		}
		if cfg.LLCLatency >= cfg.DRAMLatency {
			t.Fatalf("host %s: LLC must be faster than DRAM", cfg.Name)
		}
	}
	if H3.RAMBytes != 1<<40 {
		t.Fatalf("H3 RAM = %d, want 1TB", H3.RAMBytes)
	}
}

// Property: allocations never overlap and are always page-aligned.
func TestAllocDisjointProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		h := newTestHost()
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, s := range sizes {
			r, err := h.Alloc(uint64(s)+1, Page4K, 0)
			if err != nil {
				return true // out of memory is acceptable
			}
			if r.Base()%uint64(Page4K) != 0 {
				return false
			}
			for _, sp := range spans {
				if r.Base() < sp.hi && sp.lo < r.Base()+r.Size() {
					return false
				}
			}
			spans = append(spans, span{r.Base(), r.Base() + r.Size()})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Lookup finds exactly the region containing any in-range address.
func TestLookupProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		h := newTestHost()
		var regions []*Region
		for i := 0; i < 8; i++ {
			r, err := h.Alloc(8192, Page4K, 0)
			if err != nil {
				return true
			}
			regions = append(regions, r)
		}
		for i, off := range offsets {
			r := regions[i%len(regions)]
			addr := r.Base() + uint64(off)%r.Size()
			if h.Lookup(addr) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyBacking: Alloc reserves and pins the range without backing it. An
// unbacked region reads as zeros; the first WriteAt or Bytes backs it, and
// the data then reads back. A freed region fails every access and has no
// bytes, backed or not.
func TestLazyBacking(t *testing.T) {
	h := newTestHost()
	r, err := h.Alloc(3*4096, Page4K, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Used() != 3*4096 {
		t.Fatalf("used = %d, want the pinned 3 pages before any backing", h.Used())
	}
	if r.data != nil {
		t.Fatal("Alloc backed the region")
	}
	got := []byte{1, 2, 3, 4}
	if err := r.ReadAt(4096, got); err != nil || !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("unbacked read = %v, %v; want zeros", got, err)
	}
	if r.data != nil {
		t.Fatal("ReadAt backed the region")
	}
	if err := r.WriteAt(8190, []byte{7, 8}); err != nil {
		t.Fatal(err)
	}
	if b := r.Bytes(); len(b) != 3*4096 || b[8190] != 7 || b[8191] != 8 || b[0] != 0 {
		t.Fatal("write did not land in the backing")
	}

	lazy, _ := h.Alloc(4096, Page4K, 0)
	if b := lazy.Bytes(); len(b) != 4096 {
		t.Fatalf("Bytes of an unbacked region has %d bytes, want 4096", len(b))
	}
	for _, fr := range []*Region{r, lazy, func() *Region { x, _ := h.Alloc(4096, Page4K, 0); return x }()} {
		h.Free(fr)
		if fr.Bytes() != nil {
			t.Fatal("freed region still has bytes")
		}
		if fr.ReadAt(0, got) == nil || fr.WriteAt(0, got) == nil {
			t.Fatal("access to a freed region succeeded")
		}
	}
	if h.Used() != 0 {
		t.Fatalf("used = %d after freeing everything", h.Used())
	}
}
