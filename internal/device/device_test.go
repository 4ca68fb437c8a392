package device

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cxl"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// fixture builds a home agent + link + Type-2 device.
func fixture(t testing.TB, typ cxl.DeviceType) (*Device, *coherence.HomeAgent) {
	t.Helper()
	p := timing.Default()
	llc := cache.MustNew("llc", 256<<10, 4)
	store := mem.NewStore("host")
	chs := mem.NewChannels("mc", 8, p.DRAM.WriteQueueEntries, p.DRAM.WriteDrainPerLine)
	home := coherence.NewHomeAgent(p, llc, store, chs)
	link := interconnect.NewLink("cxl", p.CXL.OneWay, p.CXL.BytesPerSec)
	cfg := DefaultConfig()
	cfg.Type = typ
	d := MustNew(p, cfg, home, link)
	return d, home
}

func line(b byte) []byte {
	d := make([]byte, phys.LineSize)
	for i := range d {
		d[i] = b
	}
	return d
}

const (
	hostAddr = phys.Addr(0x10000)
	devAddr  = phys.Addr(0x0080_0000_0000) // inside RegionDevice
)

// ---------- Table III: full matrix ----------

// TestTableIII walks the paper's Table III: for each D2H request type and
// each initial placement (HMC hit, LLC hit, LLC miss), the resulting HMC
// and LLC cache-line states must match.
func TestTableIII(t *testing.T) {
	type outcome struct{ hmc, llc cache.State }
	prime := func(t *testing.T, where string) (*Device, *coherence.HomeAgent) {
		d, home := fixture(t, cxl.Type2)
		home.Store().WriteLine(hostAddr, line(0x5A))
		switch where {
		case "hmc":
			// Bring the line into HMC Shared with a CS-read, then flush the
			// LLC copy the read may have observed (the paper's methodology).
			d.D2H(cxl.CSRead, hostAddr, nil, 0)
			home.LLC().Invalidate(hostAddr)
		case "llc":
			home.LLC().Fill(hostAddr, cache.Exclusive, line(0x5A))
		case "miss":
		}
		return d, home
	}
	check := func(t *testing.T, d *Device, home *coherence.HomeAgent, want outcome) {
		t.Helper()
		gotHMC := cache.Invalid
		if l := d.HMC().Peek(hostAddr); l.Valid() {
			gotHMC = l.State
		}
		gotLLC := cache.Invalid
		if l := home.LLC().Peek(hostAddr); l.Valid() {
			gotLLC = l.State
		}
		if gotHMC != want.hmc || gotLLC != want.llc {
			t.Errorf("states after request: HMC=%v LLC=%v, want HMC=%v LLC=%v",
				gotHMC, gotLLC, want.hmc, want.llc)
		}
	}

	cases := []struct {
		req  cxl.D2HReq
		init string
		want outcome
	}{
		// NC-P: HMC Invalid, LLC Modified — all placements.
		{cxl.NCP, "hmc", outcome{cache.Invalid, cache.Modified}},
		{cxl.NCP, "llc", outcome{cache.Invalid, cache.Modified}},
		{cxl.NCP, "miss", outcome{cache.Invalid, cache.Modified}},
		// NC-rd: no change anywhere.
		{cxl.NCRead, "hmc", outcome{cache.Shared, cache.Invalid}},
		{cxl.NCRead, "llc", outcome{cache.Invalid, cache.Exclusive}},
		{cxl.NCRead, "miss", outcome{cache.Invalid, cache.Invalid}},
		// NC-wr: both invalid.
		{cxl.NCWrite, "hmc", outcome{cache.Invalid, cache.Invalid}},
		{cxl.NCWrite, "llc", outcome{cache.Invalid, cache.Invalid}},
		{cxl.NCWrite, "miss", outcome{cache.Invalid, cache.Invalid}},
		// CO-rd: HMC hit S→E; LLC hit E → HMC E, LLC Invalid; miss → E.
		{cxl.CORead, "hmc", outcome{cache.Exclusive, cache.Invalid}},
		{cxl.CORead, "llc", outcome{cache.Exclusive, cache.Invalid}},
		{cxl.CORead, "miss", outcome{cache.Exclusive, cache.Invalid}},
		// CO-wr: HMC Modified, LLC Invalid.
		{cxl.COWrite, "hmc", outcome{cache.Modified, cache.Invalid}},
		{cxl.COWrite, "llc", outcome{cache.Modified, cache.Invalid}},
		{cxl.COWrite, "miss", outcome{cache.Modified, cache.Invalid}},
		// CS-rd: HMC Shared everywhere; LLC keeps/downgrades-to S on hit.
		{cxl.CSRead, "hmc", outcome{cache.Shared, cache.Invalid}},
		{cxl.CSRead, "llc", outcome{cache.Shared, cache.Shared}},
		{cxl.CSRead, "miss", outcome{cache.Shared, cache.Invalid}},
	}
	for _, tc := range cases {
		t.Run(tc.req.String()+"/"+tc.init, func(t *testing.T) {
			d, home := prime(t, tc.init)
			d.D2H(tc.req, hostAddr, line(0xD0), sim.Microsecond)
			check(t, d, home, tc.want)
		})
	}
}

// ---------- D2H data correctness ----------

func TestD2HReadReturnsHostData(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	home.Store().WriteLine(hostAddr, line(0x33))
	for _, req := range []cxl.D2HReq{cxl.NCRead, cxl.CSRead, cxl.CORead} {
		d.HMC().FlushAll(nil)
		res := d.D2H(req, hostAddr, nil, 0)
		if res.Data == nil || res.Data[0] != 0x33 {
			t.Errorf("%v: data = %v", req, res.Data)
		}
	}
}

func TestD2HReadSeesLatestLLCData(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	home.Store().WriteLine(hostAddr, line(0x01))          // stale
	home.LLC().Fill(hostAddr, cache.Modified, line(0x02)) // latest
	res := d.D2H(cxl.NCRead, hostAddr, nil, 0)
	if res.Data[0] != 0x02 {
		t.Fatalf("read stale data %#x", res.Data[0])
	}
}

func TestD2HHMCHitFasterThanMiss(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	home.Store().WriteLine(hostAddr, line(7))
	d.D2H(cxl.CSRead, hostAddr, nil, 0) // warm HMC
	d.ResetTiming()
	hit := d.D2H(cxl.CSRead, hostAddr, nil, 0)
	if !hit.HMCHit {
		t.Fatal("expected HMC hit")
	}
	d2, home2 := fixture(t, cxl.Type2)
	home2.Store().WriteLine(hostAddr, line(7))
	miss := d2.D2H(cxl.CSRead, hostAddr, nil, 0)
	if hit.Done >= miss.Done {
		t.Fatalf("HMC hit %v should beat miss %v", hit.Done, miss.Done)
	}
}

func TestNCWriteUpdatesHostMemory(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	d.D2H(cxl.NCWrite, hostAddr, line(0xEE), 0)
	buf := make([]byte, phys.LineSize)
	home.Store().ReadLine(hostAddr, buf)
	if buf[0] != 0xEE {
		t.Fatal("NC-wr data missing from host memory")
	}
}

func TestCOWriteDataLivesInHMCOnly(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	d.D2H(cxl.COWrite, hostAddr, line(0xAB), 0)
	if got := d.HMC().Peek(hostAddr); got == nil || got.Data[0] != 0xAB {
		t.Fatal("CO-wr data must live in HMC")
	}
	buf := make([]byte, phys.LineSize)
	home.Store().ReadLine(hostAddr, buf)
	if !bytes.Equal(buf, make([]byte, phys.LineSize)) {
		t.Fatal("CO-wr must not write host memory eagerly")
	}
	// Recall (host snoop) delivers the data.
	st, data, ok := d.RecallHMC(hostAddr)
	if !ok || st != cache.Modified || data[0] != 0xAB {
		t.Fatalf("recall = %v %v %v", st, data, ok)
	}
}

func TestHMCEvictionWritesBack(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	// Fill one HMC set (4 ways, 512 sets) with CO-writes to 5 aliasing
	// lines: stride = sets * 64 = 32 KiB.
	stride := phys.Addr(d.HMC().Sets() * phys.LineSize)
	for i := 0; i < 5; i++ {
		d.D2H(cxl.COWrite, hostAddr+phys.Addr(i)*stride, line(byte(0x10+i)), 0)
	}
	buf := make([]byte, phys.LineSize)
	home.Store().ReadLine(hostAddr, buf)
	if buf[0] != 0x10 {
		t.Fatalf("evicted modified HMC line not written back: %#x", buf[0])
	}
	if d.Stats().HMCWritebacks == 0 {
		t.Fatal("writeback not counted")
	}
}

func TestD2HOnType3Panics(t *testing.T) {
	d, _ := fixture(t, cxl.Type3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: Type-3 has no CXL.cache")
		}
	}()
	d.D2H(cxl.NCRead, hostAddr, nil, 0)
}

// ---------- D2D ----------

func TestD2DDataRoundTrip(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	d.D2D(cxl.COWrite, devAddr, line(0x44), 0)
	res := d.D2D(cxl.CSRead, devAddr, nil, 0)
	if res.Data[0] != 0x44 {
		t.Fatalf("read %#x", res.Data[0])
	}
	if !res.DMCHit {
		t.Fatal("CO-write should have installed the line in DMC")
	}
}

func TestD2DNCWriteBypassesDMC(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	d.D2D(cxl.CSRead, devAddr, nil, 0) // allocate in DMC
	d.D2D(cxl.NCWrite, devAddr, line(0x66), 0)
	if d.DMC().Peek(devAddr) != nil {
		t.Fatal("NC-wr must invalidate the DMC copy")
	}
	buf := make([]byte, phys.LineSize)
	d.Mem().ReadLine(devAddr, buf)
	if buf[0] != 0x66 {
		t.Fatal("NC-wr data missing from device memory")
	}
}

func TestDeviceBiasWriteFasterThanHostBias(t *testing.T) {
	// Fig. 4: NC-wr/CO-wr hitting DMC in device-bias mode are ~60 % faster.
	region := phys.Range{Base: devAddr, Size: 1 << 20}
	dHost, _ := fixture(t, cxl.Type2)
	dHost.D2D(cxl.CSRead, devAddr, nil, 0) // warm DMC
	dHost.ResetTiming()
	hostBias := dHost.D2D(cxl.COWrite, devAddr, line(1), 0)

	dDev, _ := fixture(t, cxl.Type2)
	dDev.D2D(cxl.CSRead, devAddr, nil, 0)
	dDev.EnterDeviceBias(region, 0)
	dDev.ResetTiming()
	devBias := dDev.D2D(cxl.COWrite, devAddr, line(1), 0)

	if devBias.Done >= hostBias.Done {
		t.Fatalf("device-bias write %v should beat host-bias %v", devBias.Done, hostBias.Done)
	}
	lower := 100 * float64(hostBias.Done-devBias.Done) / float64(hostBias.Done)
	if lower < 40 || lower > 75 {
		t.Fatalf("device-bias is %.0f%% lower, paper says ~60%%", lower)
	}
}

func TestSharedReadSkipsBiasCheck(t *testing.T) {
	// Fig. 4: NC-rd/CS-rd hitting DMC in shared state show no notable
	// host-bias penalty.
	d, _ := fixture(t, cxl.Type2)
	d.D2D(cxl.CSRead, devAddr, nil, 0) // line now Shared in DMC (host-bias)
	d.ResetTiming()
	hostBias := d.D2D(cxl.CSRead, devAddr, nil, 0)

	d2, _ := fixture(t, cxl.Type2)
	d2.D2D(cxl.CSRead, devAddr, nil, 0)
	d2.EnterDeviceBias(phys.Range{Base: devAddr, Size: 1 << 20}, 0)
	d2.ResetTiming()
	devBias := d2.D2D(cxl.CSRead, devAddr, nil, 0)

	diff := float64(hostBias.Done-devBias.Done) / float64(devBias.Done)
	if diff > 0.05 || diff < -0.05 {
		t.Fatalf("shared-read bias penalty = %.1f%%, want ~0", diff*100)
	}
}

func TestHostBiasWriteInvalidatesLLCCopy(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	home.LLC().Fill(devAddr, cache.Modified, line(0x09)) // host cached the devmem line
	d.D2D(cxl.COWrite, devAddr, line(0x0A), 0)
	if home.LLC().Peek(devAddr) != nil {
		t.Fatal("host-bias write must invalidate the host LLC copy")
	}
	// The host's newer data was folded into device memory before the write.
	buf := make([]byte, phys.LineSize)
	d.Mem().ReadLine(devAddr, buf)
	if buf[0] != 0x09 {
		t.Fatalf("host's modified data lost: %#x", buf[0])
	}
}

func TestD2DNCPPanics(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	defer func() {
		if recover() == nil {
			t.Fatal("NC-P is not defined for D2D")
		}
	}()
	d.D2D(cxl.NCP, devAddr, line(1), 0)
}

// ---------- H2D ----------

func TestH2DNeverServedFromDMC(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	d.Mem().WriteLine(devAddr, line(0x11))
	d.D2D(cxl.CSRead, devAddr, nil, 0) // line in DMC
	// Mutate DMC data via CO-write (Modified, newer than memory).
	d.D2D(cxl.COWrite, devAddr, line(0x22), 0)
	res := d.H2D(cxl.Ld, devAddr, nil, 0)
	// The modified DMC line must be written back first, then served from
	// device memory — so the host still sees the latest data.
	if res.Data[0] != 0x22 {
		t.Fatalf("H2D read returned %#x", res.Data[0])
	}
	if !res.DMCHit || res.DMCState != cache.Modified {
		t.Fatalf("res = %+v", res)
	}
}

func TestH2DType2SlowerThanType3(t *testing.T) {
	// Fig. 5: the Type-2 DMC check adds a few percent.
	d2, _ := fixture(t, cxl.Type2)
	d3, _ := fixture(t, cxl.Type3)
	t2 := d2.H2D(cxl.Ld, devAddr, nil, 0)
	t3 := d3.H2D(cxl.Ld, devAddr, nil, 0)
	if t2.Done <= t3.Done {
		t.Fatalf("Type-2 (%v) must be slower than Type-3 (%v)", t2.Done, t3.Done)
	}
}

func TestH2DDMCStatePenalties(t *testing.T) {
	// Fig. 5 / §V-C: owned and modified DMC hits are slower than misses;
	// shared hits are about the same.
	lat := func(st cache.State) sim.Time {
		d, _ := fixture(t, cxl.Type2)
		if st != cache.Invalid {
			d.SetDMCState(devAddr, st, line(1))
		}
		return d.H2D(cxl.Ld, devAddr, nil, 0).Done
	}
	miss := lat(cache.Invalid)
	shared := lat(cache.Shared)
	owned := lat(cache.Owned)
	modified := lat(cache.Modified)
	if shared != miss {
		t.Errorf("shared hit %v != miss %v (paper: negligible difference)", shared, miss)
	}
	if owned <= miss {
		t.Errorf("owned hit %v should exceed miss %v", owned, miss)
	}
	if modified <= owned {
		t.Errorf("modified hit %v should exceed owned %v", modified, owned)
	}
}

func TestH2DOwnedHitDowngradesToShared(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	d.SetDMCState(devAddr, cache.Owned, line(1))
	d.H2D(cxl.Ld, devAddr, nil, 0)
	if got := d.DMC().Peek(devAddr).State; got != cache.Shared {
		t.Fatalf("DMC state after H2D ld = %v, want S", got)
	}
	// A second load now pays no transition.
	first := d.H2D(cxl.Ld, devAddr+0x40, nil, 0).Done // miss baseline
	d.ResetTiming()
	second := d.H2D(cxl.Ld, devAddr, nil, 0).Done
	if second > first {
		t.Fatalf("shared hit %v should not exceed miss %v", second, first)
	}
}

func TestH2DWriteInvalidatesDMC(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	d.D2D(cxl.CSRead, devAddr, nil, 0)
	d.H2D(cxl.NtSt, devAddr, line(0x77), 0)
	if d.DMC().Peek(devAddr) != nil {
		t.Fatal("H2D write must invalidate the DMC copy")
	}
	buf := make([]byte, phys.LineSize)
	d.Mem().ReadLine(devAddr, buf)
	if buf[0] != 0x77 {
		t.Fatal("H2D write data missing")
	}
}

func TestH2DBiasFlip(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	region := phys.Range{Base: devAddr, Size: 1 << 20}
	d.EnterDeviceBias(region, 0)
	if d.BiasOf(devAddr) != DeviceBias {
		t.Fatal("region should be device-bias")
	}
	res := d.H2D(cxl.Ld, devAddr, nil, 0)
	if !res.BiasFlipped {
		t.Fatal("H2D to device-bias region must flip it")
	}
	if d.BiasOf(devAddr) != HostBias {
		t.Fatal("region should be back to host-bias")
	}
	if d.Stats().BiasFlips != 1 {
		t.Fatal("flip not counted")
	}
	// Flip costs time: compare with a host-bias access.
	d2, _ := fixture(t, cxl.Type2)
	plain := d2.H2D(cxl.Ld, devAddr, nil, 0)
	if res.Done <= plain.Done {
		t.Fatal("bias flip should cost extra latency")
	}
}

func TestEnterDeviceBiasFlushesHostCopies(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	home.LLC().Fill(devAddr, cache.Modified, line(0x31))
	region := phys.Range{Base: devAddr, Size: 1 << 20}
	done := d.EnterDeviceBias(region, 0)
	if home.LLC().Peek(devAddr) != nil {
		t.Fatal("host copies must be flushed before device bias")
	}
	buf := make([]byte, phys.LineSize)
	d.Mem().ReadLine(devAddr, buf)
	if buf[0] != 0x31 {
		t.Fatal("flushed dirty data must land in device memory")
	}
	if done <= 0 {
		t.Fatal("flush must take time")
	}
	d.ExitDeviceBias(region)
	if d.BiasOf(devAddr) != HostBias {
		t.Fatal("ExitDeviceBias failed")
	}
}

// ---------- block transfers ----------

func TestBlockTransfersMoveData(t *testing.T) {
	d, home := fixture(t, cxl.Type2)
	src := make([]byte, phys.PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	home.Store().Write(hostAddr, src)
	dst := make([]byte, phys.PageSize)
	done := d.ReadHostBlock(cxl.NCRead, hostAddr, phys.PageSize, dst, 0)
	if !bytes.Equal(dst, src) {
		t.Fatal("ReadHostBlock data mismatch")
	}
	if done <= 0 {
		t.Fatal("block read must take time")
	}
	// Write it into device memory via D2D NC-write (the zswap zpool path).
	d.WriteDevBlock(cxl.NCWrite, devAddr, dst, phys.PageSize, done)
	out := make([]byte, phys.PageSize)
	d.Mem().Read(devAddr, out)
	if !bytes.Equal(out, src) {
		t.Fatal("WriteDevBlock data mismatch")
	}
	// And push it back to host LLC with NC-P (the decompression return path).
	d.WriteHostBlock(cxl.NCP, hostAddr+0x100000, dst, phys.PageSize, done)
	for off := 0; off < phys.PageSize; off += phys.LineSize {
		l := home.LLC().Peek(hostAddr + 0x100000 + phys.Addr(off))
		if l == nil || l.State != cache.Modified {
			t.Fatalf("NC-P line at offset %d not in LLC Modified", off)
		}
	}
}

func TestBlockTransferPipelines(t *testing.T) {
	// A 4 KB NC-read block should complete far faster than 64 sequential
	// unpipelined reads (64 × ~245 ns ≈ 15.7 µs): the credits keep ~21 in
	// flight.
	d, _ := fixture(t, cxl.Type2)
	done := d.ReadHostBlock(cxl.NCRead, hostAddr, phys.PageSize, nil, 0)
	if done > 4*sim.Microsecond {
		t.Fatalf("4KB block read took %v; pipelining broken", done)
	}
	if done < 500*sim.Nanosecond {
		t.Fatalf("4KB block read took %v; implausibly fast", done)
	}
}

func TestBlockTransferHintValidation(t *testing.T) {
	d, _ := fixture(t, cxl.Type2)
	for _, fn := range []func(){
		func() { d.ReadHostBlock(cxl.NCWrite, hostAddr, 64, nil, 0) },
		func() { d.WriteHostBlock(cxl.NCRead, hostAddr, nil, 64, 0) },
		func() { d.ReadDevBlock(cxl.COWrite, devAddr, 64, nil, 0) },
		func() { d.WriteDevBlock(cxl.CSRead, devAddr, nil, 64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for wrong hint direction")
				}
			}()
			fn()
		}()
	}
}

func TestNewValidation(t *testing.T) {
	p := timing.Default()
	if _, err := New(p, DefaultConfig(), nil, nil); err == nil {
		t.Fatal("nil home/link must error")
	}
	llc := cache.MustNew("llc", 64<<10, 4)
	home := coherence.NewHomeAgent(p, llc, mem.NewStore("h"), mem.NewChannels("m", 1, 32, sim.Nanosecond))
	link := interconnect.NewLink("l", 1, 1e9)
	cfg := DefaultConfig()
	cfg.Type = cxl.DeviceType(9)
	if _, err := New(p, cfg, home, link); err == nil {
		t.Fatal("unknown personality should be rejected")
	}
	cfg = DefaultConfig()
	cfg.HMCBytes = 100 // invalid geometry
	if _, err := New(p, cfg, home, link); err == nil {
		t.Fatal("bad HMC geometry should be rejected")
	}
}

func TestType3HasNoCaches(t *testing.T) {
	d, _ := fixture(t, cxl.Type3)
	if d.HMC() != nil || d.DMC() != nil {
		t.Fatal("Type-3 must not have device caches")
	}
	if d.Type() != cxl.Type3 {
		t.Fatal("Type() wrong")
	}
}

func TestBiasModeString(t *testing.T) {
	if HostBias.String() != "host-bias" || DeviceBias.String() != "device-bias" {
		t.Fatal("BiasMode names wrong")
	}
}

// ---------- Type-1 personality (Table I extension) ----------

func TestType1CoherentD2HWithoutDeviceMemory(t *testing.T) {
	d, home := fixture(t, cxl.Type1)
	if d.HMC() == nil {
		t.Fatal("Type-1 must keep the coherent device cache")
	}
	if d.DMC() != nil {
		t.Fatal("Type-1 must not have a device-memory cache")
	}
	home.Store().WriteLine(hostAddr, line(0x5C))
	res := d.D2H(cxl.CSRead, hostAddr, nil, 0)
	if res.Data[0] != 0x5C {
		t.Fatal("Type-1 D2H read failed")
	}
	d.ResetTiming()
	res = d.D2H(cxl.CSRead, hostAddr, nil, 0)
	if !res.HMCHit {
		t.Fatal("Type-1 device cache should serve the repeat read")
	}
}

func TestType1RejectsMemProtocol(t *testing.T) {
	d, _ := fixture(t, cxl.Type1)
	for name, fn := range map[string]func(){
		"D2D": func() { d.D2D(cxl.CSRead, devAddr, nil, 0) },
		"H2D": func() { d.H2D(cxl.Ld, devAddr, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic on a Type-1 device (no CXL.mem)", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkD2HThroughput measures the simulator's own speed: simulated D2H
// requests processed per wall-clock second.
func BenchmarkD2HThroughput(b *testing.B) {
	d, home := fixture(b, cxl.Type2)
	home.Store().WriteLine(hostAddr, line(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.D2H(cxl.NCRead, hostAddr+phys.Addr((i%4096)*64), nil, 0)
	}
}
