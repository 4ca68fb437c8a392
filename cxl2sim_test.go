package cxl2sim

import (
	"bytes"
	"strings"
	"testing"
)

func smallSystem(t testing.TB) *System {
	t.Helper()
	s, err := NewSystem(Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemDefaults(t *testing.T) {
	s := MustNewSystem(Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 2})
	if s.Dev.Type() != Type2 {
		t.Fatalf("default device type = %v", s.Dev.Type())
	}
	if s.P == nil {
		t.Fatal("params not set")
	}
	s3 := MustNewSystem(Config{DeviceType: Type3, LLCBytes: 1 << 20, LLCWays: 16, Cores: 2})
	if s3.Dev.Type() != Type3 {
		t.Fatal("Type3 personality not honored")
	}
}

func TestNewSystemRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.Host.CoreGHz = 0
	if _, err := NewSystem(Config{Params: p}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestFacadeD2HRoundTrip(t *testing.T) {
	s := smallSystem(t)
	line := bytes.Repeat([]byte{0x5A}, LineSize)
	s.WriteHostMemory(0x4000, line)
	res := s.D2H(CSRead, 0x4000, nil, 0)
	if res.Done <= 0 || !bytes.Equal(res.Data, line) {
		t.Fatalf("D2H read: %+v", res)
	}
	// NC-P pushes into LLC; a host load then hits it fast.
	s.D2H(NCP, 0x8000, line, 0)
	h := s.H2D(0, Ld, 0x8000, nil, 0)
	if !h.LLCHit {
		t.Fatal("NC-P push not visible to host load")
	}
}

func TestFacadeD2DAndBias(t *testing.T) {
	s := smallSystem(t)
	addr := DeviceMemoryBase + 0x10000
	line := bytes.Repeat([]byte{0x7B}, LineSize)
	s.D2D(COWrite, addr, line, 0)
	if s.BiasOf(addr) != HostBias {
		t.Fatal("default bias should be host")
	}
	done := s.EnterDeviceBias(DeviceMemoryBase, 1<<20, 0)
	if s.BiasOf(addr) != DeviceBias {
		t.Fatal("EnterDeviceBias failed")
	}
	res := s.D2D(CSRead, addr, nil, done)
	if res.Data[0] != 0x7B {
		t.Fatal("D2D data lost")
	}
}

func TestFacadeH2DDeviceMemory(t *testing.T) {
	s := smallSystem(t)
	addr := DeviceMemoryBase + 0x40000
	line := bytes.Repeat([]byte{0x21}, LineSize)
	s.H2D(0, NtSt, addr, line, 0)
	got := make([]byte, LineSize)
	s.ReadDeviceMemory(addr, got)
	if !bytes.Equal(got, line) {
		t.Fatal("H2D nt-st data missing")
	}
}

func TestZswapStackEndToEnd(t *testing.T) {
	s := smallSystem(t)
	eng := NewEngine()
	st, err := s.NewZswapStack(eng, CXL, 256, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc := s.NewProc(eng, "app", -1)
	as := st.MM.NewAddressSpace(1)
	page := bytes.Repeat([]byte("cxl2sim!"), PageSize/8)
	// Overcommit: 300 pages in 256 frames forces reclaim through cxl-zswap.
	for v := uint64(0); v < 300; v++ {
		if err := as.Map(v, page, proc); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if st.MM.Stats().SwapOuts == 0 {
		t.Fatal("no reclaim happened")
	}
	// Fault everything back and verify.
	for v := uint64(0); v < 300; v++ {
		got, err := as.Read(v, proc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("page %d corrupted", v)
		}
	}
	if st.Zswap.Stats().Stores == 0 {
		t.Fatal("zswap never engaged")
	}
	// The CXL variant pools in device memory.
	if !st.Zswap.Backend().PoolInDeviceMemory() {
		t.Fatal("cxl pool should live in device memory")
	}
}

func TestKsmStackEndToEnd(t *testing.T) {
	s := smallSystem(t)
	eng := NewEngine()
	st, err := s.NewKsmStack(eng, CXL, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc := s.NewProc(eng, "loader", -1)
	shared := bytes.Repeat([]byte{0x42}, PageSize)
	for vm := 0; vm < 4; vm++ {
		as := st.MM.NewAddressSpace(vm + 1)
		if err := as.Map(0, shared, proc); err != nil {
			t.Fatal(err)
		}
		st.Scanner.RegisterRange(as, 0, 1)
	}
	st.Daemon.PagesPerBatch = 4
	st.Daemon.SleepBetween = Millisecond
	st.Daemon.Start()
	eng.RunUntil(50 * Millisecond)
	st.Daemon.Stop()
	eng.Run()
	ks := st.Scanner.Stats()
	if ks.PagesShared != 1 || ks.PagesSharing != 4 {
		t.Fatalf("ksm stats: %+v", ks)
	}
}

func TestStackValidation(t *testing.T) {
	s := smallSystem(t)
	eng := NewEngine()
	if _, err := s.NewZswapStack(eng, CPU, 0, 20, 0); err == nil {
		t.Fatal("zero pages accepted")
	}
	if _, err := s.NewKsmStack(eng, CPU, -1, 0); err == nil {
		t.Fatal("negative pages accepted")
	}
}

func TestExperimentRunnersSmoke(t *testing.T) {
	var sb strings.Builder
	secs := ExperimentSections(8)
	fig3, _ := ExperimentSectionByName(secs, "fig3")
	table3, _ := ExperimentSectionByName(secs, "table3")
	if _, err := RunExperimentSections(&sb, []ExperimentSection{fig3, table3}, JobOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	PrintTable4(&sb, RunTable4())
	if !strings.Contains(sb.String(), "Fig. 3") || !strings.Contains(sb.String(), "Table III") {
		t.Fatal("runner output incomplete")
	}
	if len(Workloads()) != 4 {
		t.Fatal("Workloads() wrong")
	}
}

func TestResetTimingIdempotent(t *testing.T) {
	s := smallSystem(t)
	a := s.D2H(NCRead, 0x1000, nil, 0)
	s.ResetTiming()
	b := s.D2H(NCRead, 0x1000, nil, 0)
	if a.Done != b.Done {
		t.Fatalf("timing not reset: %v vs %v", a.Done, b.Done)
	}
}

func TestMicrobenchAPI(t *testing.T) {
	s := smallSystem(t)
	// D2H: HMC hit must be fastest, LLC hit faster than cold.
	hmc, err := s.MeasureD2H(CSRead, MeasureSpec{Reps: 50, Place: PlaceHMC})
	if err != nil {
		t.Fatal(err)
	}
	llc, _ := s.MeasureD2H(CSRead, MeasureSpec{Reps: 50, Place: PlaceLLC})
	cold, _ := s.MeasureD2H(CSRead, MeasureSpec{Reps: 50, Place: PlaceCold})
	if !(hmc.MedianNs < llc.MedianNs && llc.MedianNs < cold.MedianNs) {
		t.Fatalf("D2H ordering: HMC %.1f, LLC %.1f, cold %.1f", hmc.MedianNs, llc.MedianNs, cold.MedianNs)
	}
	// D2D: DMC hit beats miss.
	dmc, err := s.MeasureD2D(CSRead, MeasureSpec{Reps: 50, Place: PlaceDMC})
	if err != nil {
		t.Fatal(err)
	}
	dcold, _ := s.MeasureD2D(CSRead, MeasureSpec{Reps: 50, Place: PlaceCold})
	if dmc.MedianNs >= dcold.MedianNs {
		t.Fatalf("D2D ordering: DMC %.1f vs cold %.1f", dmc.MedianNs, dcold.MedianNs)
	}
	// H2D: NC-P-pushed (PlaceLLC) beats cold; owned DMC hit is slowest.
	pushed, err := s.MeasureH2D(Ld, MeasureSpec{Reps: 50, Place: PlaceLLC})
	if err != nil {
		t.Fatal(err)
	}
	hcold, _ := s.MeasureH2D(Ld, MeasureSpec{Reps: 50, Place: PlaceCold})
	owned, _ := s.MeasureH2D(Ld, MeasureSpec{Reps: 50, Place: PlaceDMC})
	if !(pushed.MedianNs < hcold.MedianNs && hcold.MedianNs < owned.MedianNs) {
		t.Fatalf("H2D ordering: pushed %.1f, cold %.1f, owned %.1f", pushed.MedianNs, hcold.MedianNs, owned.MedianNs)
	}
	// Invalid placements are rejected.
	if _, err := s.MeasureD2H(CSRead, MeasureSpec{Place: PlaceDMC}); err == nil {
		t.Fatal("PlaceDMC accepted for D2H")
	}
	if _, err := s.MeasureD2D(CSRead, MeasureSpec{Place: PlaceLLC}); err == nil {
		t.Fatal("PlaceLLC accepted for D2D")
	}
	if _, err := s.MeasureH2D(Ld, MeasureSpec{Place: PlaceHMC}); err == nil {
		t.Fatal("PlaceHMC accepted for H2D")
	}
	// Combinations the device cannot serve are errors, not panics.
	if _, err := s.MeasureD2D(NCP, MeasureSpec{Place: PlaceCold}); err == nil {
		t.Fatal("NC-P accepted for D2D")
	}
	t3 := MustNewSystem(Config{DeviceType: Type3, LLCBytes: 4 << 20, LLCWays: 16, Cores: 8})
	if _, err := t3.MeasureD2H(CSRead, MeasureSpec{Place: PlaceCold}); err == nil {
		t.Fatal("D2H accepted on Type-3")
	}
	if _, err := t3.MeasureD2D(CSRead, MeasureSpec{Place: PlaceCold}); err == nil {
		t.Fatal("D2D accepted on Type-3")
	}
	for _, place := range []Placement{PlaceLLC, PlaceDMC} {
		if _, err := t3.MeasureH2D(Ld, MeasureSpec{Place: place}); err == nil {
			t.Fatalf("H2D %v accepted on Type-3", place)
		}
	}
	if hmc.Reps != 50 || hmc.Burst != 16 {
		t.Fatalf("spec defaults wrong: %+v", hmc)
	}
	if PlaceCold.String() != "cold" || PlaceDMC.String() != "DMC-1" {
		t.Fatal("Placement names wrong")
	}
}
