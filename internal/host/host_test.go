package host

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

func fixture(t testing.TB) *Host {
	t.Helper()
	return fixtureOf(t, cxl.Type2)
}

// fixtureOf is fixture with a device of the given type attached.
func fixtureOf(t testing.TB, typ cxl.DeviceType) *Host {
	t.Helper()
	h := MustNew(timing.Default(), Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 4})
	if _, err := h.Attach(typ); err != nil {
		t.Fatal(err)
	}
	return h
}

func line(b byte) []byte {
	d := make([]byte, phys.LineSize)
	for i := range d {
		d[i] = b
	}
	return d
}

var devAddr = mem.RegionDevice.Base + 0x4000

func TestDefaultConfigGeometry(t *testing.T) {
	// Table II: 60 MB LLC. 60 MB / 64 B / 15 ways = 65536 sets.
	h := MustNew(timing.Default(), DefaultConfig())
	if h.LLC().Sets() != 65536 || h.LLC().Ways() != 15 {
		t.Fatalf("LLC geometry: %d sets × %d ways", h.LLC().Sets(), h.LLC().Ways())
	}
	if h.NumCores() != 32 {
		t.Fatalf("cores = %d", h.NumCores())
	}
}

func TestSNCHalvesChannels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SNC = true
	h := MustNew(timing.Default(), cfg)
	if h.Channels().N() != 4 {
		t.Fatalf("SNC channels = %d, want 4", h.Channels().N())
	}
}

func TestNewRejectsNoCores(t *testing.T) {
	for _, n := range []int{0, -1} {
		cfg := DefaultConfig()
		cfg.Cores = n
		if _, err := New(timing.Default(), cfg); err == nil {
			t.Errorf("Cores = %d accepted", n)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	p := timing.Default()
	p.Host.CoreGHz = 0
	if _, err := New(p, DefaultConfig()); err == nil {
		t.Fatal("invalid params accepted")
	}
	p2 := timing.Default()
	p2.Host.MemChannels = 1
	cfg := DefaultConfig()
	cfg.SNC = true
	if _, err := New(p2, cfg); err == nil {
		t.Fatal("SNC with 1 channel should fail")
	}
}

func TestLocalLoadStoreRoundTrip(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	st := c.Access(cxl.St, 0x1000, line(0x21), 0)
	ld := c.Access(cxl.Ld, 0x1000, nil, st.Done)
	if ld.Data[0] != 0x21 {
		t.Fatalf("load read %#x", ld.Data[0])
	}
	if !ld.LLCHit {
		t.Fatal("store should have installed the line")
	}
}

func TestLocalLoadMissSlowerThanHit(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	miss := c.Access(cxl.Ld, 0x2000, nil, 0)
	h.ResetTiming()
	hit := c.Access(cxl.Ld, 0x2000, nil, 0)
	if !hit.LLCHit || miss.LLCHit {
		t.Fatal("hit/miss classification wrong")
	}
	if hit.Done >= miss.Done {
		t.Fatalf("hit %v should beat miss %v", hit.Done, miss.Done)
	}
}

func TestNtStBypassesCache(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	c.Access(cxl.Ld, 0x3000, nil, 0) // line cached
	c.Access(cxl.NtSt, 0x3000, line(0x99), 0)
	if h.LLC().Peek(0x3000) != nil {
		t.Fatal("nt-st must invalidate the cached copy")
	}
	buf := make([]byte, phys.LineSize)
	h.Store().ReadLine(0x3000, buf)
	if buf[0] != 0x99 {
		t.Fatal("nt-st data missing from memory")
	}
}

func TestH2DLoadCachesDeviceLine(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	h.Dev.WriteDevMemDirect(devAddr, line(0x61))
	first := c.Access(cxl.Ld, devAddr, nil, 0)
	if first.Data[0] != 0x61 || first.LLCHit {
		t.Fatalf("first = %+v", first)
	}
	h.ResetTiming()
	second := c.Access(cxl.Ld, devAddr, nil, 0)
	if !second.LLCHit {
		t.Fatal("second load should hit LLC (CXL.mem is cacheable)")
	}
	if second.Done >= first.Done {
		t.Fatalf("LLC hit %v should beat CXL access %v", second.Done, first.Done)
	}
}

func TestH2DNtStPostedCompletion(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	res := c.Access(cxl.NtSt, devAddr, line(0x71), 0)
	if res.DeviceDone <= res.Done {
		t.Fatalf("device completion %v should follow host completion %v", res.DeviceDone, res.Done)
	}
	buf := make([]byte, phys.LineSize)
	h.Dev.ReadDevMemDirect(devAddr, buf)
	if buf[0] != 0x71 {
		t.Fatal("nt-st data missing from device memory")
	}
}

func TestH2DStWriteThrough(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	c.Access(cxl.St, devAddr, line(0x81), 0)
	buf := make([]byte, phys.LineSize)
	h.Dev.ReadDevMemDirect(devAddr, buf)
	if buf[0] != 0x81 {
		t.Fatal("H2D store data missing from device memory")
	}
	l := h.LLC().Peek(devAddr)
	if l == nil || l.State != cache.Modified {
		t.Fatal("H2D store should cache the line Modified")
	}
}

func TestNCPPushThenH2DLoadIsFast(t *testing.T) {
	// Insight 4: NC-P pushed lines give H2D loads LLC-hit latency.
	h := fixture(t)
	c := h.Core(0)
	h.Dev.WriteDevMemDirect(devAddr, line(0x55))
	slow := c.Access(cxl.Ld, devAddr, nil, 0)
	h.ResetTiming()
	h.LLC().Invalidate(devAddr)
	// Device pushes the line into host LLC.
	h.Dev.D2H(cxl.NCP, 0x9000, line(0x55), 0) // host-memory push works
	// For a device-memory address the push path is the host-side fill:
	h.LLC().Fill(devAddr, cache.Modified, line(0x55))
	h.ResetTiming()
	fast := c.Access(cxl.Ld, devAddr, nil, 0)
	if !fast.LLCHit {
		t.Fatal("pushed line should hit LLC")
	}
	reduction := 100 * float64(slow.Done-fast.Done) / float64(slow.Done)
	if reduction < 75 || reduction > 95 {
		t.Fatalf("NC-P load latency reduction = %.0f%%, paper says 82–87%%", reduction)
	}
}

func TestSnoopRecallsDeviceLine(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	h.Store().WriteLine(0x5000, line(0x10))
	// Device takes exclusive ownership and modifies the line in HMC.
	h.Dev.D2H(cxl.COWrite, 0x5000, line(0x20), 0)
	// Host load must observe the device's data.
	res := c.Access(cxl.Ld, 0x5000, nil, sim.Microsecond)
	if res.Data[0] != 0x20 {
		t.Fatalf("host read stale data %#x", res.Data[0])
	}
	if h.Dev.HMC().Peek(0x5000) != nil {
		t.Fatal("snoop must recall the HMC copy")
	}
}

func TestCLFlushWritesBackDirty(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	c.Access(cxl.St, 0x6000, line(0x31), 0)
	h.LLC().Peek(0x6000).State = cache.Modified
	done := c.CLFlush(0x6000, 0)
	if h.LLC().Peek(0x6000) != nil {
		t.Fatal("line survived CLFlush")
	}
	buf := make([]byte, phys.LineSize)
	h.Store().ReadLine(0x6000, buf)
	if buf[0] != 0x31 {
		t.Fatal("dirty data lost")
	}
	if done <= 0 {
		t.Fatal("CLFlush must take time")
	}
}

func TestCLDemoteInstallsInLLC(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	c.CLDemote(0x7000, cache.Exclusive, line(0x41), 0)
	l := h.LLC().Peek(0x7000)
	if l == nil || l.State != cache.Exclusive || l.Data[0] != 0x41 {
		t.Fatalf("CLDemote result: %+v", l)
	}
}

func TestEmulatedD2HLatencyOrdering(t *testing.T) {
	h := fixture(t)
	e := h.NewEmuCore()
	// LLC hit is faster than miss for every op.
	for _, op := range []cxl.HostOp{cxl.Ld, cxl.NtLd, cxl.St, cxl.NtSt} {
		h.LLC().Fill(0x8000, cache.Exclusive, nil)
		e.ResetTiming()
		hit := e.D2H(op, 0x8000, 0)
		h.LLC().Invalidate(0x8000)
		e.ResetTiming()
		h.ResetTiming()
		miss := e.D2H(op, 0x8000, 0)
		if hit >= miss {
			t.Errorf("%v: hit %v >= miss %v", op, hit, miss)
		}
	}
}

func TestEmulatedD2HReadsSlowerThanLocal(t *testing.T) {
	h := fixture(t)
	e := h.NewEmuCore()
	remote := e.D2H(cxl.Ld, 0x8100, 0)
	local := h.Core(0).Access(cxl.Ld, 0x8100, nil, 0)
	if remote <= local.Done {
		t.Fatalf("remote %v should exceed local %v", remote, local.Done)
	}
}

func TestEmulatedD2DHitIsL1Fast(t *testing.T) {
	h := fixture(t)
	e := h.NewEmuCore()
	hit := e.D2D(cxl.Ld, true, 0)
	miss := e.D2D(cxl.Ld, false, 0)
	if hit >= miss {
		t.Fatalf("L1-equivalent hit %v should beat DRAM miss %v", hit, miss)
	}
	// §V-B: the emulated DMC hit (host L1) is faster than the FPGA's DMC
	// because the host clock is 5.5× faster.
	realDMC := h.Dev.D2D(cxl.CSRead, devAddr, nil, 0)
	h.Dev.ResetTiming()
	realDMC = h.Dev.D2D(cxl.CSRead, devAddr, nil, 0) // now a DMC hit
	if !realDMC.DMCHit {
		t.Fatal("expected DMC hit")
	}
	if hit >= realDMC.Done {
		t.Fatalf("emulated DMC hit %v should beat FPGA DMC hit %v", hit, realDMC.Done)
	}
}

func TestDSACopyMovesData(t *testing.T) {
	h := fixture(t)
	dsa := h.NewDSA()
	src := make([]byte, phys.PageSize)
	for i := range src {
		src[i] = byte(i)
	}
	h.Store().Write(0x20000, src)
	submitted, done := dsa.Copy(0x20000, devAddr, phys.PageSize, 0, true)
	if submitted >= done {
		t.Fatal("submit should precede completion")
	}
	out := make([]byte, phys.PageSize)
	h.Dev.ReadDevMemDirect(devAddr, out)
	for i := range out {
		if out[i] != src[i] {
			t.Fatalf("DSA copy mismatch at %d", i)
		}
	}
}

func TestDSAFasterThanLdStForLargeTransfers(t *testing.T) {
	// Fig. 6: beyond ~1 KB, DSA beats CPU ld/st to CXL memory.
	h := fixture(t)
	c := h.Core(0)
	const size = 16 << 10
	var ldLast sim.Time
	for off := 0; off < size; off += phys.LineSize {
		r := c.Access(cxl.Ld, devAddr+phys.Addr(off), nil, 0)
		if r.Done > ldLast {
			ldLast = r.Done
		}
	}
	dsa := h.NewDSA()
	_, dsaDone := dsa.Copy(devAddr, 0x30000, size, 0, false)
	if dsaDone >= ldLast {
		t.Fatalf("DSA (%v) should beat ld loop (%v) at %d bytes", dsaDone, ldLast, size)
	}
}

func TestFenceCXL(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	var last sim.Time
	for i := 0; i < 8; i++ {
		r := c.Access(cxl.NtSt, devAddr+phys.Addr(i*64), line(1), 0)
		last = r.Done
	}
	fence := c.FenceCXL(last)
	if fence <= last {
		t.Fatal("fence must wait for drain + link")
	}
}

func TestAccessUnmappedPanics(t *testing.T) {
	h := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Core(0).Access(cxl.Ld, mem.RegionMMIO.End()+0x10000, nil, 0)
}

func TestAccessMMIOPanics(t *testing.T) {
	h := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: MMIO goes through the pcie package")
		}
	}()
	h.Core(0).Access(cxl.Ld, mem.RegionMMIO.Base, nil, 0)
}

func TestHostOpHelpers(t *testing.T) {
	if cxl.Ld.EquivalentD2H() != cxl.CSRead || cxl.NtLd.EquivalentD2H() != cxl.NCRead ||
		cxl.St.EquivalentD2H() != cxl.COWrite || cxl.NtSt.EquivalentD2H() != cxl.NCWrite {
		t.Fatal("paper's op pairing broken (§V-A)")
	}
}

func TestRemoteSocketAccess(t *testing.T) {
	h := fixture(t)
	c := h.Core(0)
	remoteAddr := mem.RegionHost1.Base + 0x1000
	line0 := line(0x66)
	c.Access(cxl.St, remoteAddr, line0, 0)
	h.ResetTiming()
	h.LLC().Invalidate(remoteAddr)
	remote := c.Access(cxl.Ld, remoteAddr, nil, 0)
	if remote.Data[0] != 0x66 {
		t.Fatal("remote data lost")
	}
	h.ResetTiming()
	h.LLC().Invalidate(0x9000)
	local := c.Access(cxl.Ld, 0x9000, nil, 0)
	if remote.Done <= local.Done {
		t.Fatalf("remote ld %v should exceed local %v (UPI hop)", remote.Done, local.Done)
	}
	// Cached remote lines serve at LLC speed.
	h.ResetTiming()
	hit := c.Access(cxl.Ld, remoteAddr, nil, 0)
	if !hit.LLCHit || hit.Done >= remote.Done {
		t.Fatal("remote line should cache locally")
	}
}
