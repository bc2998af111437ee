package host

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newTestHost() *Host {
	return New(H2)
}

func TestAllocAlignment(t *testing.T) {
	h := newTestHost()
	r, err := h.Alloc(1<<20, Page2M)
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
	r, err := h.Alloc(100, Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != uint64(Page4K) {
		t.Fatalf("size = %d", r.Size())
	}
}

func TestAllocErrors(t *testing.T) {
	h := newTestHost()
	if _, err := h.Alloc(0, Page4K); err == nil {
		t.Fatal("zero size should error")
	}
	if _, err := h.Alloc(100, PageSize(123)); err == nil {
		t.Fatal("bad page size should error")
	}
	if _, err := h.Alloc(h.Config().RAMBytes+1, Page2M); err == nil {
		t.Fatal("oversized allocation should error")
	}
}

func TestReadWriteAt(t *testing.T) {
	h := newTestHost()
	r, _ := h.Alloc(4096, Page4K)
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
	a, _ := h.Alloc(4096, Page4K)
	b, _ := h.Alloc(4096, Page4K)
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
	r, _ := h.Alloc(4096, Page4K)
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
	h := newTestHost()
	if got := h.MemAccessLatency(); got != H2.DRAMLatency {
		t.Fatalf("latency = %v, want %v", got, H2.DRAMLatency)
	}
}

func TestTableIIHosts(t *testing.T) {
	for _, cfg := range []Config{H2, H3} {
		if cfg.RAMBytes == 0 || cfg.DRAMLatency == 0 {
			t.Fatalf("host %s incompletely specified", cfg.Name)
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
			r, err := h.Alloc(uint64(s)+1, Page4K)
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
			r, err := h.Alloc(8192, Page4K)
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
	r, err := h.Alloc(3*4096, Page4K)
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

	lazy, _ := h.Alloc(4096, Page4K)
	if b := lazy.Bytes(); len(b) != 4096 {
		t.Fatalf("Bytes of an unbacked region has %d bytes, want 4096", len(b))
	}
	for _, fr := range []*Region{r, lazy, func() *Region { x, _ := h.Alloc(4096, Page4K); return x }()} {
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

// TestTouchSizedBacking: Span backs exactly the prefix up to the end of
// the span, and writes inside the prefix are visible through it; bytes past
// the prefix read as zeros; a WriteAt past the prefix backs the whole
// region and keeps what was written, after which the backing never moves.
// Pinned bytes never depend on the backing.
func TestTouchSizedBacking(t *testing.T) {
	h := newTestHost()
	r, err := h.Alloc(1, Page2M)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(Page2M)
	span := r.Span(64<<10, 4096)
	if len(span) != 4096 || len(r.data) != 68<<10 {
		t.Fatalf("span has %d bytes and backed %d, want 4096 and %d", len(span), len(r.data), 68<<10)
	}
	if err := r.WriteAt(64<<10+10, []byte{9}); err != nil || span[10] != 9 || len(r.data) != 68<<10 {
		t.Fatal("a write inside the prefix is not visible through the span, or grew the backing")
	}
	got := make([]byte, 8)
	if err := r.ReadAt(68<<10-4, got); err != nil || !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("read straddling the prefix = %v, %v; want zeros", got, err)
	}
	if err := r.WriteAt(size-1, []byte{7}); err != nil || uint64(len(r.data)) != size {
		t.Fatalf("write past the prefix backed %d bytes (%v), want all %d", len(r.data), err, size)
	}
	b := r.Bytes()
	if b[size-1] != 7 || b[64<<10+10] != 9 {
		t.Fatal("backing the whole region lost written bytes")
	}
	if err := r.WriteAt(0, []byte{6}); err != nil || &r.Span(0, 1)[0] != &b[0] || b[0] != 6 {
		t.Fatal("the backing moved after Bytes")
	}
	if h.Used() != size {
		t.Fatalf("used = %d, want the pinned %d", h.Used(), size)
	}
	h.Free(r)
	if r.Span(0, 8) != nil {
		t.Fatal("a freed region spans bytes")
	}
}
