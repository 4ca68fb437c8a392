package zswap

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/lzc"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// fakeBackend compresses with lzc instantly and stores pool bytes in a
// private store.
type fakeBackend struct {
	pool     *mem.Store
	storeLat sim.Time
	loadLat  sim.Time
	stores   int
	loads    int
}

func newFake() *fakeBackend {
	return &fakeBackend{pool: mem.NewStore("pool"), storeLat: 3 * sim.Microsecond, loadLat: 2 * sim.Microsecond}
}

func (f *fakeBackend) Name() string        { return "fake" }
func (f *fakeBackend) PoolBase() phys.Addr { return 0x100000 }

func (f *fakeBackend) Store(page []byte, src, dst phys.Addr, now sim.Time) StoreResult {
	f.stores++
	comp := lzc.Compress(nil, page)
	return StoreResult{
		Comp:      comp,
		Done:      now + f.storeLat,
		HostCPU:   f.storeLat / 2,
		Breakdown: Breakdown{Compute: f.storeLat, Total: f.storeLat},
	}
}

func (f *fakeBackend) Load(src phys.Addr, compLen int, dst phys.Addr, now sim.Time) LoadResult {
	f.loads++
	comp := make([]byte, compLen)
	f.pool.Read(src, comp)
	page := make([]byte, phys.PageSize)
	if _, err := lzc.Decompress(page, comp); err != nil {
		panic(err)
	}
	return LoadResult{Page: page, Done: now + f.loadLat, HostCPU: f.loadLat / 4}
}

func (f *fakeBackend) PoolWrite(addr phys.Addr, data []byte) { f.pool.Write(addr, data) }
func (f *fakeBackend) PoolRead(addr phys.Addr, dst []byte)   { f.pool.Read(addr, dst) }

func fixture(t *testing.T, poolPages, maxPct int) (*Zswap, *fakeBackend, *kernel.BackingSwap) {
	t.Helper()
	fb := newFake()
	backing := kernel.NewBackingSwap(20*sim.Microsecond, 25*sim.Microsecond)
	z := MustNew(Config{
		MaxPoolPercent: maxPct,
		TotalRAMPages:  1000,
		PoolPages:      poolPages,
	}, fb, backing)
	return z, fb, backing
}

func compressible(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	return lzc.SyntheticPage(rng, phys.PageSize, 0.8)
}

func incompressible(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, phys.PageSize)
	rng.Read(p)
	return p
}

func TestStoreLoadRoundTrip(t *testing.T) {
	z, fb, _ := fixture(t, 64, 100)
	page := compressible(1)
	done, cpu := z.StorePage(7, page, 0)
	if done <= 0 || cpu <= 0 {
		t.Fatalf("done=%v cpu=%v", done, cpu)
	}
	if z.PoolEntries() != 1 {
		t.Fatalf("entries = %d", z.PoolEntries())
	}
	got, ldone, _ := z.LoadPage(7, done)
	if !bytes.Equal(got, page) {
		t.Fatal("round trip mismatch")
	}
	if ldone <= done {
		t.Fatal("load must take time")
	}
	if fb.stores != 1 || fb.loads != 1 {
		t.Fatalf("backend calls: %d stores, %d loads", fb.stores, fb.loads)
	}
	// Load is exclusive: the entry is gone.
	if z.PoolEntries() != 0 {
		t.Fatal("entry should be removed after load")
	}
}

func TestIncompressibleGoesToBacking(t *testing.T) {
	z, _, backing := fixture(t, 64, 100)
	page := incompressible(2)
	z.StorePage(9, page, 0)
	if z.PoolEntries() != 0 {
		t.Fatal("incompressible page should not be pooled")
	}
	if backing.Stored() != 1 {
		t.Fatal("incompressible page should hit backing swap")
	}
	if z.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
	got, _, _ := z.LoadPage(9, 0)
	if !bytes.Equal(got, page) {
		t.Fatal("backing round trip mismatch")
	}
	if z.Stats().BackingLoads != 1 {
		t.Fatal("backing load not counted")
	}
}

func TestZbudPairsTwoCompressedPages(t *testing.T) {
	z, _, _ := fixture(t, 64, 100)
	// Two pages that compress below half a page each should share one zbud
	// page.
	z.StorePage(1, compressible(10), 0)
	z.StorePage(2, compressible(11), 0)
	st := z.Stats()
	if st.PoolPagesUsed != 1 {
		t.Fatalf("pool pages used = %d, want 1 (buddied)", st.PoolPagesUsed)
	}
	// Both load back correctly (no overlap corruption).
	a, _, _ := z.LoadPage(1, 0)
	b, _, _ := z.LoadPage(2, 0)
	if !bytes.Equal(a, compressible(10)) || !bytes.Equal(b, compressible(11)) {
		t.Fatal("buddied pages corrupted")
	}
}

func TestZbudFreeingReleasesPages(t *testing.T) {
	z, _, _ := fixture(t, 8, 100)
	for slot := kernel.SwapSlot(1); slot <= 8; slot++ {
		z.StorePage(slot, compressible(int64(slot)), 0)
	}
	used := z.Stats().PoolPagesUsed
	for slot := kernel.SwapSlot(1); slot <= 8; slot++ {
		z.DropPage(slot)
	}
	if z.Stats().PoolPagesUsed != 0 {
		t.Fatalf("pool pages used = %d after dropping all (was %d)", z.Stats().PoolPagesUsed, used)
	}
	if z.PoolEntries() != 0 {
		t.Fatal("entries remain")
	}
}

func TestMaxPoolPercentTriggersWriteback(t *testing.T) {
	// Pool limit: 1000 RAM pages × 1% = 10 zbud pages.
	z, _, backing := fixture(t, 64, 1)
	var slot kernel.SwapSlot
	for slot = 1; slot <= 40; slot++ {
		z.StorePage(slot, incompressibleButPoolable(int64(slot)), 0)
	}
	st := z.Stats()
	if st.Writebacks == 0 {
		t.Fatal("pool overflow must write back to the backing device")
	}
	if st.PoolPagesUsed > 10 {
		t.Fatalf("pool used %d pages, limit 10", st.PoolPagesUsed)
	}
	if backing.Stored() == 0 {
		t.Fatal("written-back pages missing from backing")
	}
	// Every page is still recoverable from either location.
	for s := kernel.SwapSlot(1); s <= 40; s++ {
		got, _, _ := z.LoadPage(s, 0)
		if !bytes.Equal(got, incompressibleButPoolable(int64(s))) {
			t.Fatalf("slot %d corrupted after writeback shuffle", s)
		}
	}
}

// incompressibleButPoolable compresses to just under a page so each entry
// occupies most of a zbud page (forces pool growth).
func incompressibleButPoolable(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, phys.PageSize)
	rng.Read(p)
	// A run of zeros buys enough compression to stay below PageSize.
	for i := 0; i < 512; i++ {
		p[i] = 0
	}
	return p
}

func TestWritebackEvictsLRUFirst(t *testing.T) {
	z, _, _ := fixture(t, 64, 1) // limit 10 zbud pages
	for slot := kernel.SwapSlot(1); slot <= 11; slot++ {
		z.StorePage(slot, incompressibleButPoolable(int64(slot)), 0)
	}
	// Slot 1 was the oldest; it should now live in backing, not the pool.
	if _, inPool := z.entries[1]; inPool {
		t.Fatal("LRU entry survived writeback")
	}
	if _, inPool := z.entries[11]; !inPool {
		t.Fatal("newest entry should remain pooled")
	}
}

func TestDropPageFromBacking(t *testing.T) {
	z, _, backing := fixture(t, 8, 100)
	z.StorePage(3, incompressible(3), 0) // rejected → backing
	z.DropPage(3)
	if backing.Stored() != 0 {
		t.Fatal("DropPage did not clear backing slot")
	}
}

func TestStatsRatio(t *testing.T) {
	z, _, _ := fixture(t, 64, 100)
	z.StorePage(1, compressible(20), 0)
	st := z.Stats()
	if st.CompressedBytes == 0 || st.UncompressedBytes != phys.PageSize {
		t.Fatalf("stats = %+v", st)
	}
	if st.CompressedBytes >= st.UncompressedBytes {
		t.Fatal("compressible page did not shrink")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MaxPoolPercent: 0, TotalRAMPages: 10, PoolPages: 10},
		{MaxPoolPercent: 101, TotalRAMPages: 10, PoolPages: 10},
		{MaxPoolPercent: 20, TotalRAMPages: 0, PoolPages: 10},
		{MaxPoolPercent: 20, TotalRAMPages: 10, PoolPages: 0},
	}
	for i, c := range bad {
		if _, err := New(c, newFake(), kernel.NewBackingSwap(1, 1)); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(Config{MaxPoolPercent: 20, TotalRAMPages: 10, PoolPages: 10}, nil, nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestKernelIntegrationThroughSwapOps(t *testing.T) {
	// End to end: MM reclaim drives zswap; faults restore data.
	fb := newFake()
	backing := kernel.NewBackingSwap(20*sim.Microsecond, 25*sim.Microsecond)
	z := MustNew(Config{MaxPoolPercent: 50, TotalRAMPages: 8, PoolPages: 16}, fb, backing)
	eng := sim.NewEngine()
	mm := kernel.NewMM(timing.Default(), mem.NewStore("host"), 0, 8)
	mm.SetSwap(z)
	proc := sim.NewProc(eng, "app", nil)
	as := mm.NewAddressSpace(1)
	pages := make([][]byte, 12)
	for v := range pages {
		pages[v] = compressible(int64(100 + v))
		if err := as.Map(uint64(v), pages[v], proc); err != nil {
			t.Fatal(err)
		}
	}
	// The first few pages were reclaimed through zswap; fault them back.
	for v := 0; v < 12; v++ {
		got, err := as.Read(uint64(v), proc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[v]) {
			t.Fatalf("page %d corrupted through the zswap cycle", v)
		}
	}
	if z.Stats().Stores == 0 {
		t.Fatal("zswap never engaged")
	}
}

// TestZbudInvariantsProperty fuzzes the pool with random store/load/drop
// operations and validates the zbud allocator's accounting after each:
// used pages equal pages holding at least one buddy, no zbud page
// over-commits its capacity, and every pooled entry round-trips its bytes.
func TestZbudInvariantsProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		z, _, _ := fixture(t, 32, 100)
		live := map[kernel.SwapSlot][]byte{}
		nextSlot := kernel.SwapSlot(1)
		for op := 0; op < 400; op++ {
			switch rng.Intn(3) {
			case 0: // store
				page := lzc.SyntheticPage(rng, phys.PageSize, 0.3+rng.Float64()*0.6)
				slot := nextSlot
				nextSlot++
				z.StorePage(slot, page, 0)
				if _, pooled := z.entries[slot]; pooled {
					live[slot] = page
				}
			case 1: // load (removes)
				for slot, want := range live {
					got, _, _ := z.LoadPage(slot, 0)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d op %d: slot %d corrupted", seed, op, slot)
					}
					delete(live, slot)
					break
				}
			case 2: // drop
				for slot := range live {
					z.DropPage(slot)
					delete(live, slot)
					break
				}
			}
			// Accounting invariants.
			occupied := 0
			for i := range z.zbud {
				zp := &z.zbud[i]
				if zp.firstLen < 0 || zp.lastLen < 0 || zp.firstLen+zp.lastLen > phys.PageSize {
					t.Fatalf("seed %d op %d: zbud page %d overcommitted (%d+%d)",
						seed, op, i, zp.firstLen, zp.lastLen)
				}
				if !zp.free() {
					occupied++
				}
			}
			if occupied != z.used {
				t.Fatalf("seed %d op %d: used=%d but %d pages occupied", seed, op, z.used, occupied)
			}
			if len(z.entries) < occupied {
				t.Fatalf("seed %d op %d: %d entries in %d pages", seed, op, len(z.entries), occupied)
			}
		}
		// Drain and verify everything left.
		for slot, want := range live {
			got, _, _ := z.LoadPage(slot, 0)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: final slot %d corrupted", seed, slot)
			}
		}
		if z.used != 0 || z.PoolEntries() != 0 {
			t.Fatalf("seed %d: pool not empty after drain (used=%d entries=%d)", seed, z.used, z.PoolEntries())
		}
	}
}

func TestSameFilledPages(t *testing.T) {
	z, fb, _ := fixture(t, 64, 100)
	// Zero page and a memset pattern: stored as values, no pool space, no
	// backend compression.
	zero := make([]byte, phys.PageSize)
	patt := bytes.Repeat([]byte{0xA5}, phys.PageSize)
	d1, c1 := z.StorePage(1, zero, 0)
	d2, c2 := z.StorePage(2, patt, d1)
	if fb.stores != 0 {
		t.Fatal("same-filled pages must skip the compression backend")
	}
	if z.Stats().SameFilled != 2 || z.Stats().PoolPagesUsed != 0 {
		t.Fatalf("stats = %+v", z.Stats())
	}
	if c1 <= 0 || c2 <= 0 {
		t.Fatal("the scan still costs CPU")
	}
	// A normal page still goes through the backend.
	z.StorePage(3, compressible(5), d2)
	if fb.stores != 1 {
		t.Fatal("regular page bypassed the backend")
	}
	// Loads reconstruct exactly.
	got, _, _ := z.LoadPage(1, 0)
	if !bytes.Equal(got, zero) {
		t.Fatal("zero page corrupted")
	}
	got, _, _ = z.LoadPage(2, 0)
	if !bytes.Equal(got, patt) {
		t.Fatal("patterned page corrupted")
	}
	if fb.loads != 0 {
		t.Fatal("same-filled loads must skip the backend")
	}
	// Drop works too.
	z.StorePage(4, zero, 0)
	z.DropPage(4)
	if z.PoolEntries() != 1 { // only slot 3 remains
		t.Fatalf("entries = %d", z.PoolEntries())
	}
}

func TestSameFilledFasterThanCompression(t *testing.T) {
	z, _, _ := fixture(t, 64, 100)
	zero := make([]byte, phys.PageSize)
	dz, _ := z.StorePage(10, zero, 0)
	dc, _ := z.StorePage(11, compressible(9), 0)
	if dz >= dc {
		t.Fatalf("same-filled store (%v) should be much faster than compression (%v)", dz, dc)
	}
}
