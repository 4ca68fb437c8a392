package offload

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cxl"
	"repro/internal/host"
	"repro/internal/kernel"
	"repro/internal/lzc"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/zswap"
)

func platform(t testing.TB) *Platform {
	t.Helper()
	h := host.MustNew(timing.Default(), host.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
	if _, err := h.Attach(cxl.Type2); err != nil {
		t.Fatal(err)
	}
	return NewPlatform(h)
}

func testPage(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	return lzc.SyntheticPage(rng, phys.PageSize, 0.7)
}

const srcAddr = phys.Addr(0x40000)

// variants lists the four backends in the paper's order.
var variants = []Variant{CPU, PCIeRDMA, PCIeDMA, CXL}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{CPU: "cpu", PCIeRDMA: "pcie-rdma", PCIeDMA: "pcie-dma", CXL: "cxl"}
	for v, n := range want {
		if v.String() != n {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
}

func TestZswapBackendNames(t *testing.T) {
	pl := platform(t)
	want := map[Variant]string{
		CPU: "cpu-zswap", PCIeRDMA: "pcie-rdma-zswap", PCIeDMA: "pcie-dma-zswap", CXL: "cxl-zswap",
	}
	for v, n := range want {
		if got := NewZswapBackend(v, pl).Name(); got != n {
			t.Errorf("%v backend name = %q, want %q", v, got, n)
		}
	}
}

func TestOnlyCXLPoolsInDeviceMemory(t *testing.T) {
	// §VI-A: storing the zpool in device memory "cannot be easily or
	// efficiently accomplished with PCIe-based zswap".
	pl := platform(t)
	for _, v := range variants {
		b := NewZswapBackend(v, pl)
		if got := mem.RegionDevice.Contains(b.PoolBase()); got != (v == CXL) {
			t.Errorf("%v: pool at %v in device memory = %v", v, b.PoolBase(), got)
		}
	}
}

func TestAllBackendsRoundTripData(t *testing.T) {
	pl := platform(t)
	page := testPage(1)
	pl.Host.Store().Write(srcAddr, page)
	for _, v := range variants {
		b := NewZswapBackend(v, pl)
		res := b.Store(page, srcAddr, 0, 0)
		if len(res.Comp) >= phys.PageSize {
			t.Fatalf("%v: page did not compress", v)
		}
		poolAddr := phys.Addr(0x900000)
		if v == CXL {
			poolAddr = mem.RegionDevice.Base + 0x900000
		}
		b.PoolWrite(poolAddr, res.Comp)
		lres := b.Load(poolAddr, len(res.Comp), srcAddr+phys.PageSize, res.Done)
		if !bytes.Equal(lres.Page, page) {
			t.Fatalf("%v: round trip mismatch", v)
		}
		if lres.Done <= res.Done {
			t.Fatalf("%v: load must take time", v)
		}
	}
}

// TestTableIVShape pins the offload-latency relations of Table IV:
// cxl-zswap's pipelined compression offload is ~64% faster than
// pcie-rdma-zswap and ~37% faster than pcie-dma-zswap.
func TestTableIVShape(t *testing.T) {
	pl := platform(t)
	page := testPage(2)
	pl.Host.Store().Write(srcAddr, page)

	total := func(v Variant) sim.Time {
		pl.Host.ResetTiming()
		pl.EP.ResetTiming()
		b := NewZswapBackend(v, pl)
		res := b.Store(page, srcAddr, 0, 0)
		return res.Breakdown.Total
	}
	rdma := total(PCIeRDMA)
	dma := total(PCIeDMA)
	cxlT := total(CXL)

	lowerVsRDMA := stats.PctLower(float64(cxlT), float64(rdma))
	lowerVsDMA := stats.PctLower(float64(cxlT), float64(dma))
	if !stats.Within(lowerVsRDMA, 64, 0.25) {
		t.Errorf("cxl vs rdma: %.0f%% lower (cxl=%v rdma=%v), paper: 64%%", lowerVsRDMA, cxlT, rdma)
	}
	if !stats.Within(lowerVsDMA, 37, 0.40) {
		t.Errorf("cxl vs dma: %.0f%% lower (cxl=%v dma=%v), paper: 37%%", lowerVsDMA, cxlT, dma)
	}
	// Absolute ordering: cxl < dma < rdma (Table IV: 3.9 < 6.2 < 10.9).
	if !(cxlT < dma && dma < rdma) {
		t.Errorf("ordering broken: cxl=%v dma=%v rdma=%v", cxlT, dma, rdma)
	}
}

func TestTableIVBreakdownSteps(t *testing.T) {
	pl := platform(t)
	page := testPage(3)
	pl.Host.Store().Write(srcAddr, page)

	rdma := NewZswapBackend(PCIeRDMA, pl).Store(page, srcAddr, 0, 0).Breakdown
	if rdma.Pipelined {
		t.Fatal("rdma backend is not pipelined")
	}
	// Paper's per-step ordering for pcie-rdma: compute (5.5) > transfer-in
	// (3.1) > store-out (2.3).
	if !(rdma.Compute > rdma.TransferIn && rdma.TransferIn > rdma.StoreOut) {
		t.Errorf("rdma step ordering: in=%v compute=%v out=%v", rdma.TransferIn, rdma.Compute, rdma.StoreOut)
	}
	pl.EP.ResetTiming()
	dma := NewZswapBackend(PCIeDMA, pl).Store(page, srcAddr, 0, 0).Breakdown
	// pcie-dma: compute (2.9) > transfer-in (1.7) > store-out (1.6).
	if !(dma.Compute > dma.TransferIn && dma.TransferIn >= dma.StoreOut) {
		t.Errorf("dma step ordering: in=%v compute=%v out=%v", dma.TransferIn, dma.Compute, dma.StoreOut)
	}
	cxlB := NewZswapBackend(CXL, pl).Store(page, srcAddr, 0, 0).Breakdown
	if !cxlB.Pipelined {
		t.Fatal("cxl backend must report pipelined")
	}
}

func TestHostCPUOrdering(t *testing.T) {
	// §VII: cpu consumes the most host CPU; pcie-* pay doorbell+interrupt;
	// cxl pays almost nothing.
	pl := platform(t)
	page := testPage(4)
	pl.Host.Store().Write(srcAddr, page)
	cpus := map[Variant]sim.Time{}
	for _, v := range variants {
		pl.EP.ResetTiming()
		res := NewZswapBackend(v, pl).Store(page, srcAddr, 0, 0)
		cpus[v] = res.HostCPU
	}
	if !(cpus[CXL] < cpus[PCIeRDMA] && cpus[CXL] < cpus[PCIeDMA] && cpus[PCIeRDMA] < cpus[CPU] && cpus[PCIeDMA] < cpus[CPU]) {
		t.Fatalf("host CPU ordering wrong: %v", cpus)
	}
	// cxl should be well under a microsecond of host involvement.
	if cpus[CXL] > sim.Microsecond {
		t.Fatalf("cxl host CPU = %v", cpus[CXL])
	}
}

func TestPollutionOrdering(t *testing.T) {
	pl := platform(t)
	page := testPage(5)
	pl.Host.Store().Write(srcAddr, page)
	pols := map[Variant]int{}
	for _, v := range variants {
		pl.EP.ResetTiming()
		pols[v] = NewZswapBackend(v, pl).Store(page, srcAddr, 0, 0).PollutedLines
	}
	if !(pols[CXL] < pols[PCIeRDMA] && pols[PCIeRDMA] < pols[CPU] && pols[PCIeDMA] < pols[CPU]) {
		t.Fatalf("pollution ordering wrong: %v", pols)
	}
}

func TestDecompressDeliveryRatios(t *testing.T) {
	// §VII: the CXL device delivers a decompressed 4 KB page ~2.1× faster
	// than the BF-class device and ~1.6× faster than the host CPU.
	pl := platform(t)
	page := testPage(6)
	pl.Host.Store().Write(srcAddr, page)
	lat := func(v Variant) sim.Time {
		pl.EP.ResetTiming()
		pl.Host.ResetTiming()
		b := NewZswapBackend(v, pl)
		res := b.Store(page, srcAddr, 0, 0)
		poolAddr := phys.Addr(0xA00000)
		if v == CXL {
			poolAddr = mem.RegionDevice.Base + 0xA00000
		}
		b.PoolWrite(poolAddr, res.Comp)
		// Measure the load on idle hardware, as the paper measures each
		// offload in isolation.
		pl.EP.ResetTiming()
		pl.Host.ResetTiming()
		l := b.Load(poolAddr, len(res.Comp), srcAddr+2*phys.PageSize, 0)
		return l.Done
	}
	cpuT := lat(CPU)
	rdmaT := lat(PCIeRDMA)
	cxlT := lat(CXL)
	vsArm := stats.Ratio(float64(rdmaT), float64(cxlT))
	vsHost := stats.Ratio(float64(cpuT), float64(cxlT))
	// Our SNIC model is a BF-3 whose per-page delivery pays two full NIC
	// round trips; the paper's 2.1x is against the older BF-2, so we accept
	// a wider band while requiring the ordering and rough magnitude.
	if vsArm < 1.8 || vsArm > 4.2 {
		t.Errorf("cxl vs Arm decompress delivery = %.2fx (cxl=%v rdma=%v), paper: ~2.1x", vsArm, cxlT, rdmaT)
	}
	if vsHost < 1.1 || vsHost > 2.3 {
		t.Errorf("cxl vs host decompress delivery = %.2fx (cxl=%v cpu=%v), paper: ~1.6x", vsHost, cxlT, cpuT)
	}
}

func TestKsmBackends(t *testing.T) {
	pl := platform(t)
	pageA := testPage(7)
	pageB := bytes.Clone(pageA)
	pageC := testPage(8)
	pl.Host.Store().Write(srcAddr, pageA)
	names := map[Variant]string{
		CPU: "cpu-ksm", PCIeRDMA: "pcie-rdma-ksm", PCIeDMA: "pcie-dma-ksm", CXL: "cxl-ksm",
	}
	for _, v := range variants {
		pl.EP.ResetTiming()
		b := NewKsmBackend(v, pl)
		if b.Name() != names[v] {
			t.Errorf("%v name = %q", v, b.Name())
		}
		cs1 := b.Checksum(pageA, srcAddr, 0)
		cs2 := b.Checksum(pageB, srcAddr, cs1.Done)
		if cs1.Sum != cs2.Sum {
			t.Errorf("%v: checksum not content-deterministic", v)
		}
		eq := b.Compare(pageA, pageB, srcAddr, srcAddr+phys.PageSize, 0)
		if eq.FirstDiff != phys.PageSize {
			t.Errorf("%v: equal pages FirstDiff = %d", v, eq.FirstDiff)
		}
		neq := b.Compare(pageA, pageC, srcAddr, srcAddr+phys.PageSize, 0)
		if neq.FirstDiff >= phys.PageSize {
			t.Errorf("%v: different pages compared equal", v)
		}
		if cs1.Done <= 0 || eq.Done <= 0 {
			t.Errorf("%v: zero-latency data plane", v)
		}
	}
}

func TestKsmHostCPUOrdering(t *testing.T) {
	pl := platform(t)
	page := testPage(9)
	pl.Host.Store().Write(srcAddr, page)
	cpus := map[Variant]sim.Time{}
	for _, v := range variants {
		pl.EP.ResetTiming()
		b := NewKsmBackend(v, pl)
		r := b.Checksum(page, srcAddr, 0)
		c := b.Compare(page, page, srcAddr, srcAddr, r.Done)
		cpus[v] = r.HostCPU + c.HostCPU
	}
	if !(cpus[CXL] < cpus[PCIeRDMA] && cpus[CXL] < cpus[PCIeDMA] && cpus[PCIeRDMA] < cpus[CPU]) {
		t.Fatalf("ksm host CPU ordering wrong: %v", cpus)
	}
}

func TestCXLKsmEarlyOutCheaperTransfers(t *testing.T) {
	pl := platform(t)
	a := testPage(10)
	b := bytes.Clone(a)
	b[3] = a[3] + 1 // differ at byte 3
	bk := NewKsmBackend(CXL, pl)
	early := bk.Compare(a, b, srcAddr, srcAddr+phys.PageSize, 0)
	pl.Host.ResetTiming()
	full := bk.Compare(a, a, srcAddr, srcAddr+phys.PageSize, 0)
	if early.Done >= full.Done {
		t.Fatalf("early-out compare (%v) should beat full compare (%v)", early.Done, full.Done)
	}
}

func TestZswapIntegrationWithCXLBackend(t *testing.T) {
	// Full stack: zswap + cxl backend + device-memory pool.
	pl := platform(t)
	backing := kernel.NewBackingSwap(20*sim.Microsecond, 25*sim.Microsecond)
	z := zswap.MustNew(zswap.Config{
		MaxPoolPercent: 50,
		TotalRAMPages:  1000,
		PoolPages:      64,
	}, NewZswapBackend(CXL, pl), backing)
	page := testPage(11)
	pl.Host.Store().Write(srcAddr, page)
	done, _ := z.StorePage(5, page, 0)
	got, _, _ := z.LoadPage(5, done)
	if !bytes.Equal(got, page) {
		t.Fatal("cxl zswap round trip failed")
	}
	// The compressed bytes really lived in device memory.
	if z.Stats().Stores != 1 {
		t.Fatal("store not pooled")
	}
}

func TestDoorbellCosts(t *testing.T) {
	pl := platform(t)
	at, hostCPU := pl.doorbell(0)
	if hostCPU <= 0 || hostCPU > 200*sim.Nanosecond {
		t.Fatalf("doorbell host cost = %v; should be a handful of nt-st", hostCPU)
	}
	if at <= hostCPU {
		t.Fatal("device pickup must include link + polling delay")
	}
	// Far cheaper than an RDMA post + interrupt.
	p := pl.P
	if hostCPU >= p.PCIe.RDMAPost {
		t.Fatal("doorbell should cost less host CPU than a verb post")
	}
}
