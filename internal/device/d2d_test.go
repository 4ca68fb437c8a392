package device

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/sim"
)

// blockPools are the device-memory windows the ReadDevBlock differential
// test draws from, one DMC capacity apart so that their lines conflict
// in the direct-mapped DMC.
var blockPools = []phys.Addr{devAddr, devAddr + 32<<10}

// blockStep is one randomized operation replayed identically on both
// twin devices.
type blockStep struct {
	kind int // one of the step* kinds
	req  cxl.D2HReq
	op   cxl.HostOp
	st   cache.State
	addr phys.Addr
	size int
	now  sim.Time
}

const (
	stepD2D      = iota // accelerator D2D request
	stepH2D             // host CXL.mem request: flips bias, downgrades the DMC
	stepHostFill        // the host caches the line in its LLC
	stepEnter           // EnterDeviceBias over [addr, addr+size)
	stepExit            // ExitDeviceBias of the override at index size
	stepBlock           // a timing-only NC block read
	numSteps
)

func (s blockStep) apply(d *Device) sim.Time {
	switch s.kind {
	case stepD2D:
		var data []byte
		if s.req.IsWrite() {
			data = line(byte(s.addr))
		}
		return d.D2D(s.req, s.addr, data, s.now).Done
	case stepH2D:
		var data []byte
		if s.op == cxl.NtSt {
			data = line(byte(s.addr) + 1)
		}
		return d.H2D(s.op, s.addr, data, s.now).Done
	case stepHostFill:
		d.home.LLC().Fill(s.addr, s.st, line(byte(s.addr)+2))
		return s.now
	case stepEnter:
		return d.EnterDeviceBias(phys.Range{Base: s.addr, Size: uint64(s.size)}, s.now)
	case stepExit:
		if len(d.biasOverrides) > 0 {
			d.ExitDeviceBias(d.biasOverrides[s.size%len(d.biasOverrides)])
		}
		return s.now
	default:
		return d.ReadDevBlock(cxl.NCRead, s.addr, s.size, nil, s.now)
	}
}

// randomBlockStep draws one step over blockPools. Bias overrides may
// start and end mid-line, so a line's bias is that of its first byte.
func randomBlockStep(rng *rand.Rand, now sim.Time) blockStep {
	s := blockStep{
		kind: rng.Intn(numSteps),
		addr: blockPools[rng.Intn(len(blockPools))] + phys.Addr(rng.Intn(32)*phys.LineSize),
		now:  now,
	}
	switch s.kind {
	case stepD2D:
		s.req = []cxl.D2HReq{cxl.CORead, cxl.COWrite, cxl.CSRead, cxl.NCRead, cxl.NCWrite}[rng.Intn(5)]
	case stepH2D:
		s.op = []cxl.HostOp{cxl.Ld, cxl.St, cxl.NtLd, cxl.NtSt}[rng.Intn(4)]
	case stepHostFill:
		s.st = []cache.State{cache.Modified, cache.Exclusive, cache.Shared}[rng.Intn(3)]
	case stepEnter:
		s.addr += phys.Addr(rng.Intn(4) * 16)
		s.size = 1 + rng.Intn(16*phys.LineSize)
	case stepExit:
		s.size = rng.Intn(8)
	case stepBlock:
		s.size = 1 + rng.Intn(16*phys.LineSize)
	}
	return s
}

// TestReadDevBlockMatchesPerLine pins the batched timing-only NC block
// read against the per-line d2dRead loop it replaces, on twin devices
// driven through identical randomized histories: DMC-resident lines in
// every state, device-memory lines the host LLC holds, and device-bias
// overrides that start and end mid-line, are flipped back by H2D
// requests and are exited. Equal return values are not enough — ~200
// follow-up ops must complete identically on both twins, and the device,
// DMC and LLC statistics, resources, bias overrides and device memory
// must agree, so the batched path leaves the same state.
func TestReadDevBlockMatchesPerLine(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, _ := fixture(t, cxl.Type2)
		b, _ := fixture(t, cxl.Type2)
		var now sim.Time
		for i, n := 0, rng.Intn(60); i < n; i++ {
			now += sim.Time(rng.Intn(40)) * sim.Nanosecond
			s := randomBlockStep(rng, now)
			if da, db := s.apply(a), s.apply(b); da != db {
				t.Fatalf("seed %d: twins diverged before the read: %v vs %v", seed, da, db)
			}
		}

		addr := blockPools[rng.Intn(len(blockPools))] + phys.Addr(rng.Intn(24)*phys.LineSize+rng.Intn(2)*32)
		size := 1 + rng.Intn(16*phys.LineSize)
		free := a.lsu.FreeAt()
		at := free + sim.Time(rng.Intn(100))*sim.Nanosecond
		if free > 0 && rng.Intn(2) == 0 {
			at = free - 1 - sim.Time(rng.Int63n(int64(free)))
		}

		got := a.ReadDevBlock(cxl.NCRead, addr, size, nil, at)
		var want sim.Time
		for off, t0 := 0, at+b.p.Device.LSUTransferSetup; off < size; off += phys.LineSize {
			want = max(want, b.d2dRead(cxl.NCRead, addr+phys.Addr(off), t0, false).Done)
		}
		if got != want {
			t.Fatalf("seed %d: ReadDevBlock(%v, %d, %v) = %v, per-line loop = %v", seed, addr, size, at, got, want)
		}

		now = max(now, at)
		for i := 0; i < 200; i++ {
			now += sim.Time(rng.Intn(20)) * sim.Nanosecond
			s := randomBlockStep(rng, now)
			if da, db := s.apply(a), s.apply(b); da != db {
				t.Fatalf("seed %d: follow-up %d %+v: %v after the batched read, %v after per-line", seed, i, s, da, db)
			}
		}
		checkTwinDevices(t, seed, a, b)
	}
}

func checkTwinDevices(t *testing.T, seed int64, a, b *Device) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("seed %d: device stats %+v / %+v", seed, a.Stats(), b.Stats())
	}
	if a.dmc.Stats() != b.dmc.Stats() {
		t.Fatalf("seed %d: DMC stats %+v / %+v", seed, a.dmc.Stats(), b.dmc.Stats())
	}
	if a.home.LLC().Stats() != b.home.LLC().Stats() {
		t.Fatalf("seed %d: LLC stats %+v / %+v", seed, a.home.LLC().Stats(), b.home.LLC().Stats())
	}
	ra, rb := a.lsu, b.lsu
	if ra.Busy() != rb.Busy() || ra.Claims() != rb.Claims() || ra.FreeAt() != rb.FreeAt() {
		t.Fatalf("seed %d: lsu busy %v/%v claims %d/%d", seed, ra.Busy(), rb.Busy(), ra.Claims(), rb.Claims())
	}
	if a.d2dCredits.InFlight() != b.d2dCredits.InFlight() {
		t.Fatalf("seed %d: d2d credits in flight %d/%d", seed, a.d2dCredits.InFlight(), b.d2dCredits.InFlight())
	}
	if a.chs.TotalWrites() != b.chs.TotalWrites() {
		t.Fatalf("seed %d: device channel writes %d/%d", seed, a.chs.TotalWrites(), b.chs.TotalWrites())
	}
	if !slices.Equal(a.biasOverrides, b.biasOverrides) {
		t.Fatalf("seed %d: bias overrides %v / %v", seed, a.biasOverrides, b.biasOverrides)
	}
	ma, mb := make([]byte, 64<<10), make([]byte, 64<<10)
	a.ReadDevMemDirect(devAddr, ma)
	b.ReadDevMemDirect(devAddr, mb)
	if !bytes.Equal(ma, mb) {
		t.Fatalf("seed %d: device memory differs", seed)
	}
}
