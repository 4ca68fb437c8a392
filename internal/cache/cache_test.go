package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/phys"
)

func TestGeometry(t *testing.T) {
	// The paper's HMC: 4-way 128 KB; DMC: direct-mapped 32 KB (§IV).
	hmc := MustNew("hmc", 128<<10, 4)
	if hmc.Sets() != 512 || hmc.Ways() != 4 || hmc.SizeBytes() != 128<<10 {
		t.Fatalf("hmc geometry: sets=%d ways=%d", hmc.Sets(), hmc.Ways())
	}
	dmc := MustNew("dmc", 32<<10, 1)
	if dmc.Sets() != 512 || dmc.Ways() != 1 {
		t.Fatalf("dmc geometry: sets=%d ways=%d", dmc.Sets(), dmc.Ways())
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	cases := []struct {
		size, ways int
	}{
		{0, 1},
		{-64, 1},
		{64, 0},
		{100, 1},     // not line-divisible
		{3 * 64, 1},  // 3 sets: not a power of two
		{64 * 4, 3},  // lines not divisible by ways
		{64 * 24, 4}, // 6 sets: not a power of two
	}
	for _, c := range cases {
		if _, err := New("bad", c.size, c.ways); err == nil {
			t.Errorf("New(%d, %d) accepted", c.size, c.ways)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("bad", 100, 3)
}

func TestLookupFillBasics(t *testing.T) {
	c := MustNew("c", 4*64, 2) // 2 sets × 2 ways
	if c.Lookup(0x1000) != nil {
		t.Fatal("lookup on empty cache should miss")
	}
	c.Fill(0x1000, Shared, nil)
	l := c.Lookup(0x1007) // same line, different offset
	if l == nil || l.State != Shared || l.Tag != 0x1000 {
		t.Fatalf("lookup after fill: %+v", l)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFillInPlaceUpdate(t *testing.T) {
	c := MustNew("c", 4*64, 2)
	c.Fill(0x40, Shared, nil)
	v, evicted := c.Fill(0x40, Modified, nil)
	if evicted {
		t.Fatalf("in-place update evicted %+v", v)
	}
	if got := c.Peek(0x40).State; got != Modified {
		t.Fatalf("state = %v", got)
	}
	if c.Stats().Fills != 1 {
		t.Fatalf("in-place update should not count as a new fill: %+v", c.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction: 1 set × 2 ways; three distinct lines mapping to
	// the same set must evict the least recently used.
	c := MustNew("c", 2*64, 2)
	a, b, d := phys.Addr(0x000), phys.Addr(0x040), phys.Addr(0x080)
	// With 1 set, every line maps to set 0.
	c.Fill(a, Exclusive, nil)
	c.Fill(b, Exclusive, nil)
	c.Lookup(a) // a becomes MRU
	v, evicted := c.Fill(d, Exclusive, nil)
	if !evicted || v.Addr != b {
		t.Fatalf("victim = %+v (evicted=%v), want b evicted", v, evicted)
	}
	if c.Peek(a) == nil || c.Peek(d) == nil || c.Peek(b) != nil {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestEvictionReportsDirtyVictim(t *testing.T) {
	c := MustNew("c", 64, 1) // 1 line
	data := make([]byte, phys.LineSize)
	data[0] = 0xEE
	c.Fill(0x0, Modified, data)
	v, evicted := c.Fill(0x40, Shared, nil)
	if !evicted || !v.Dirty() || v.State != Modified || v.Data[0] != 0xEE {
		t.Fatalf("victim = %+v", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestOwnedVictimIsDirty(t *testing.T) {
	if (Victim{State: Owned}).Dirty() != true {
		t.Fatal("Owned victims must be dirty")
	}
	if (Victim{State: Exclusive}).Dirty() {
		t.Fatal("Exclusive victims are clean")
	}
	if (Victim{State: Shared}).Dirty() {
		t.Fatal("Shared victims are clean")
	}
}

func TestDataCopySemantics(t *testing.T) {
	c := MustNew("c", 64, 1)
	data := make([]byte, phys.LineSize)
	data[5] = 7
	c.Fill(0x0, Modified, data)
	data[5] = 9 // caller mutation must not leak into the cache
	if got := c.Peek(0x0).Data[5]; got != 7 {
		t.Fatalf("cache data aliased caller buffer: %d", got)
	}
}

func TestFillBadDataPanics(t *testing.T) {
	c := MustNew("c", 64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short data")
		}
	}()
	c.Fill(0, Shared, []byte{1, 2, 3})
}

func TestFillInvalidStatePanics(t *testing.T) {
	c := MustNew("c", 64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Fill(0, Invalid, nil)
}

func TestInvalidate(t *testing.T) {
	c := MustNew("c", 4*64, 2)
	data := make([]byte, phys.LineSize)
	data[0] = 0x11
	c.Fill(0x80, Modified, data)
	st, d, ok := c.Invalidate(0x80)
	if !ok || st != Modified || d[0] != 0x11 {
		t.Fatalf("invalidate = %v %v %v", st, d, ok)
	}
	if c.Peek(0x80) != nil {
		t.Fatal("line still present")
	}
	if _, _, ok := c.Invalidate(0x80); ok {
		t.Fatal("double invalidate reported present")
	}
}

func TestSetState(t *testing.T) {
	c := MustNew("c", 4*64, 2)
	c.Fill(0x40, Exclusive, nil)
	if !c.SetState(0x40, Shared) {
		t.Fatal("SetState on resident line failed")
	}
	if got := c.Peek(0x40).State; got != Shared {
		t.Fatalf("state = %v", got)
	}
	// SetState to Invalid performs an invalidation.
	if !c.SetState(0x40, Invalid) {
		t.Fatal("SetState(Invalid) failed")
	}
	if c.Peek(0x40) != nil {
		t.Fatal("line survived SetState(Invalid)")
	}
	if c.SetState(0xDEAD00, Modified) {
		t.Fatal("SetState on absent line returned true")
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	c := MustNew("c", 2*64, 2)
	c.Fill(0x000, Shared, nil)
	c.Fill(0x040, Shared, nil)
	before := c.Stats()
	c.Peek(0x000)
	c.Peek(0xFFF000)
	if c.Stats() != before {
		t.Fatal("Peek changed statistics")
	}
	// Peek must not refresh LRU: 0x000 stays LRU and gets evicted.
	c.Peek(0x000)
	v, evicted := c.Fill(0x080, Shared, nil)
	if !evicted || v.Addr != 0x000 {
		t.Fatalf("victim = %+v, Peek must not refresh recency", v)
	}
}

func TestFlushAll(t *testing.T) {
	c := MustNew("c", 8*64, 2)
	c.Fill(0x000, Modified, nil)
	c.Fill(0x040, Shared, nil)
	c.Fill(0x080, Owned, nil)
	var wb []phys.Addr
	c.FlushAll(func(v Victim) { wb = append(wb, v.Addr) })
	if c.CountValid() != 0 {
		t.Fatalf("valid lines after flush: %d", c.CountValid())
	}
	if len(wb) != 2 { // Modified + Owned
		t.Fatalf("writebacks = %v", wb)
	}
}

func TestFlushRange(t *testing.T) {
	c := MustNew("c", 16*64, 2) // 8 sets: 0x000/0x200 share a set, 0x100 does not
	c.Fill(0x000, Modified, nil)
	c.Fill(0x100, Modified, nil)
	c.Fill(0x200, Shared, nil)
	r := phys.Range{Base: 0x100, Size: 0x100} // covers 0x100 and 0x1c0
	var wb int
	n := c.FlushRange(r, func(Victim) { wb++ })
	if n != 1 || wb != 1 {
		t.Fatalf("flushed %d lines, %d writebacks", n, wb)
	}
	if c.Peek(0x000) == nil || c.Peek(0x100) != nil || c.Peek(0x200) == nil {
		t.Fatal("wrong lines flushed")
	}
}

func TestVisitValid(t *testing.T) {
	c := MustNew("c", 8*64, 2)
	c.Fill(0x000, Shared, nil)
	c.Fill(0x040, Modified, nil)
	var n int
	c.VisitValid(func(l *Line) { n++ })
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Owned: "O",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should still format")
	}
}

// Property: the cache never holds more valid lines than its capacity, never
// holds two lines with the same tag, and a just-filled line is always
// resident.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew("p", 16*64, 4) // 4 sets × 4 ways
		for op := 0; op < 500; op++ {
			addr := phys.Addr(rng.Intn(64)) * 64
			switch rng.Intn(4) {
			case 0, 1:
				c.Fill(addr, State(1+rng.Intn(4)), nil)
				if c.Peek(addr) == nil {
					return false
				}
			case 2:
				c.Lookup(addr)
			case 3:
				c.Invalidate(addr)
			}
			if c.CountValid() > 16 {
				return false
			}
		}
		// No duplicate tags.
		seen := map[phys.Addr]bool{}
		dup := false
		c.VisitValid(func(l *Line) {
			if seen[l.Tag] {
				dup = true
			}
			seen[l.Tag] = true
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: with W ways and a working set of exactly W lines in one set,
// repeated round-robin access never misses after the warm-up pass (true LRU
// guarantees this; FIFO or random replacement would not).
func TestTrueLRUNoThrashProperty(t *testing.T) {
	c := MustNew("lru", 4*64, 4) // 1 set × 4 ways
	addrs := []phys.Addr{0x000, 0x040, 0x080, 0x0c0}
	for _, a := range addrs {
		c.Fill(a, Shared, nil)
	}
	c.ResetStats()
	for round := 0; round < 8; round++ {
		for _, a := range addrs {
			if c.Lookup(a) == nil {
				t.Fatalf("round %d: unexpected miss on %v", round, a)
			}
		}
	}
	if c.Stats().Misses != 0 {
		t.Fatalf("misses = %d", c.Stats().Misses)
	}
}

func TestPhysHelpers(t *testing.T) {
	if phys.LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr = %v", phys.LineAddr(0x1234))
	}
	if phys.PageAddr(0x12345) != 0x12000 {
		t.Fatalf("PageAddr = %v", phys.PageAddr(0x12345))
	}
	if phys.LineOffset(0x1234) != 0x34 {
		t.Fatalf("LineOffset = %v", phys.LineOffset(0x1234))
	}
	r := phys.Range{Base: 0x1000, Size: 0x1000}
	if !r.Contains(0x1000) || !r.Contains(0x1fff) || r.Contains(0x2000) || r.Contains(0xfff) {
		t.Fatal("Range.Contains wrong")
	}
	if r.End() != 0x2000 {
		t.Fatalf("End = %v", r.End())
	}
	o := phys.Range{Base: 0x1800, Size: 0x1000}
	if !r.Overlaps(o) || !o.Overlaps(r) {
		t.Fatal("Overlaps wrong")
	}
	if r.Overlaps(phys.Range{Base: 0x2000, Size: 0x100}) {
		t.Fatal("adjacent ranges must not overlap")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := MustNew("bench", 1<<20, 16)
	for i := 0; i < 1024; i++ {
		c.Fill(phys.Addr(i*64), Exclusive, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(phys.Addr((i % 1024) * 64))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := MustNew("bench", 1<<16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(phys.Addr(i*64), Modified, nil)
	}
}

// fillSparse is a streaming burst's access pattern: one fill into each of
// 4096 fresh sets of the Table II LLC (60 MB, 15-way).
func fillSparse() *Cache {
	c := MustNew("llc", 60<<20, 15)
	for i := 0; i < 4096; i++ {
		c.Fill(phys.Addr(i*phys.LineSize), Exclusive, nil)
	}
	return c
}

func BenchmarkFillSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fillSparse()
	}
}

// TestLazySetAllocation pins the deferred line-storage contract: a fresh
// cache answers every read-path query (Lookup, Peek, Invalidate, the
// whole-cache iterators) without ever materializing a set, a Fill
// materializes only the one set it touches, and a set holds only the ways
// it has used. Sparse rigs rely on this — eagerly zeroing a 60 MB LLC per
// parallel job dominated experiment setup, and claiming all 15 ways of
// each set a burst touches dominated what was left.
func TestLazySetAllocation(t *testing.T) {
	c := MustNew("lazy", 1<<20, 4) // 4096 sets
	if got := testing.AllocsPerRun(10, func() {
		if c.Lookup(0x1000) != nil || c.Peek(0x2000) != nil {
			t.Fatal("phantom line in empty cache")
		}
		if _, _, ok := c.Invalidate(0x3000); ok {
			t.Fatal("invalidate hit in empty cache")
		}
		if c.CountValid() != 0 {
			t.Fatal("valid lines in empty cache")
		}
		c.VisitValid(func(*Line) { t.Fatal("visit in empty cache") })
		c.FlushAll(nil)
	}); got != 0 {
		t.Fatalf("read paths allocated %.1f times on an empty cache", got)
	}

	// Fills land in two distinct sets; reads then see exactly those lines.
	c.Fill(0x0040, Exclusive, nil)
	c.Fill(0x1040, Modified, nil)
	if c.CountValid() != 2 {
		t.Fatalf("CountValid = %d, want 2", c.CountValid())
	}
	if l := c.Lookup(0x0040); l == nil || l.State != Exclusive {
		t.Fatalf("lookup after lazy fill: %+v", l)
	}
	if n := c.FlushRange(phys.Range{Base: 0x1000, Size: 0x100}, nil); n != 1 {
		t.Fatalf("FlushRange flushed %d, want 1", n)
	}
	if c.CountValid() != 1 {
		t.Fatalf("CountValid after flush = %d, want 1", c.CountValid())
	}

	// A sparse burst allocates in proportion to the lines filled, not to
	// sets × ways.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	llc := fillSparse()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(llc)
	budget := 4 * 4096 * uint64(unsafe.Sizeof(Line{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("filling 4096 sets allocated %d bytes, want < %d", got, budget)
	}
}
