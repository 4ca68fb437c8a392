package host

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cxl"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// ntPools are the address windows the NTRun differential test draws
// from: local and remote-socket DRAM, the two region boundaries a run can
// straddle (socket 0 into socket 1, socket 1 into device memory), and two
// device-memory windows one DMC capacity apart, so their lines conflict
// in the direct-mapped DMC.
var ntPools = []phys.Addr{
	0x10000,
	mem.RegionHost1.Base + 0x10000,
	mem.RegionHost0.End() - 16*phys.LineSize,
	mem.RegionHost1.End() - 16*phys.LineSize,
	mem.RegionDevice.Base + 0x10000,
	mem.RegionDevice.Base + 0x10000 + 32<<10,
}

// ntStep is one randomized operation replayed identically on both twins.
type ntStep struct {
	core int
	op   cxl.HostOp
	req  cxl.D2HReq
	dev  bool // device request — D2H to host memory, D2D to device memory — rather than a core access
	bias int  // when nonzero, EnterDeviceBias over this many lines at addr
	addr phys.Addr
	now  sim.Time
}

// deviceReqs are the hints a device step draws from.
var deviceReqs = []cxl.D2HReq{cxl.CORead, cxl.COWrite, cxl.CSRead, cxl.NCWrite, cxl.NCRead}

func (s ntStep) apply(h *Host) sim.Time {
	switch {
	case s.bias > 0:
		return h.Dev.EnterDeviceBias(phys.Range{Base: phys.LineAddr(s.addr), Size: uint64(s.bias * phys.LineSize)}, s.now)
	case s.dev && h.AddrMap().IsDevice(s.addr):
		return h.Dev.D2D(s.req, s.addr, line(0x3c), s.now).Done
	case s.dev:
		return h.Dev.D2H(s.req, s.addr, line(0x5a), s.now).Done
	}
	var data []byte
	if s.op == cxl.St || s.op == cxl.NtSt {
		data = line(byte(s.addr))
	}
	return h.Core(s.core).Access(s.op, s.addr, data, s.now).Done
}

// randomNTStep draws a core access over ntPools or, with a Type-2 device,
// sometimes a device request (D2H to host memory; D2D, which may fill the
// DMC, to device memory) or a device-bias switch that a later core access
// to the range flips back. The Type-2 draws prime what NTRun must step
// around: device-held host lines, DMC-resident lines in every state,
// LLC-resident device lines (filled by core ld and st) and device-bias
// ranges.
func randomNTStep(rng *rand.Rand, typ cxl.DeviceType, now sim.Time) ntStep {
	ops := []cxl.HostOp{cxl.Ld, cxl.St, cxl.NtLd, cxl.NtSt}
	s := ntStep{
		core: rng.Intn(2),
		op:   ops[rng.Intn(len(ops))],
		addr: ntPools[rng.Intn(len(ntPools))] + phys.Addr(rng.Intn(32)*phys.LineSize+rng.Intn(4)),
		now:  now,
	}
	if typ != cxl.Type2 {
		return s
	}
	switch rng.Intn(10) {
	case 0, 1:
		s.dev = true
		s.req = deviceReqs[rng.Intn(len(deviceReqs))]
	case 2:
		if mem.RegionDevice.Contains(s.addr) {
			s.bias = 1 + rng.Intn(16)
		}
	}
	return s
}

// TestNTRunMatchesPerLine pins NTRun against the per-line Access loop it
// replaces, on twin hosts driven through identical randomized histories:
// LLC-resident and device-held lines inside the run, remote-socket runs
// and runs across region boundaries, runs deep in device memory over
// DMC-resident lines, device-bias ranges that the run flips and
// LLC-resident device lines that an nt-st must invalidate, and `now` on
// both sides of the issue port's free time. The Type-3 twins take the
// expander's path, which skips the DMC check. Equal return values are
// not enough — ~200 follow-up single-line ops must complete identically
// on both twins, and every resource counter must agree, so the batched
// path leaves the same state.
func TestNTRunMatchesPerLine(t *testing.T) {
	for _, typ := range []cxl.DeviceType{cxl.Type2, cxl.Type3} {
		t.Run(typ.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 300; seed++ {
				ntRunTwins(t, typ, seed)
			}
		})
	}
}

func ntRunTwins(t *testing.T, typ cxl.DeviceType, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	a, b := fixtureOf(t, typ), fixtureOf(t, typ)
	var now sim.Time
	for i, n := 0, rng.Intn(40); i < n; i++ {
		now += sim.Time(rng.Intn(40)) * sim.Nanosecond
		s := randomNTStep(rng, typ, now)
		if da, db := s.apply(a), s.apply(b); da != db {
			t.Fatalf("seed %d: twins diverged before the run: %v vs %v", seed, da, db)
		}
	}

	op := cxl.NtLd
	if rng.Intn(2) == 0 {
		op = cxl.NtSt
	}
	addr := ntPools[rng.Intn(len(ntPools))] + phys.Addr(rng.Intn(24)*phys.LineSize)
	lines := 1 + rng.Intn(16)
	if typ == cxl.Type2 {
		// Device requests inside the run, so that it meets DMC-resident
		// device lines and device-held host lines.
		for i, n := 0, rng.Intn(8); i < n; i++ {
			s := ntStep{dev: true, req: deviceReqs[rng.Intn(len(deviceReqs))],
				addr: addr + phys.Addr(rng.Intn(lines)*phys.LineSize), now: now}
			if da, db := s.apply(a), s.apply(b); da != db {
				t.Fatalf("seed %d: twins diverged before the run: %v vs %v", seed, da, db)
			}
		}
	}
	free := a.Core(0).issue.FreeAt()
	at := free + sim.Time(rng.Intn(100))*sim.Nanosecond
	if free > 0 && rng.Intn(2) == 0 {
		at = free - 1 - sim.Time(rng.Int63n(int64(free)))
	}

	got := a.Core(0).NTRun(op, addr, lines, at)
	want := at
	for i := 0; i < lines; i++ {
		if d := b.Core(0).Access(op, addr+phys.Addr(i*phys.LineSize), nil, at).Done; d > want {
			want = d
		}
	}
	if got != want {
		t.Fatalf("seed %d: NTRun(%v, %v, %d, %v) = %v, per-line loop = %v",
			seed, op, addr, lines, at, got, want)
	}

	now = max(now, at)
	for i := 0; i < 200; i++ {
		now += sim.Time(rng.Intn(20)) * sim.Nanosecond
		s := randomNTStep(rng, typ, now)
		if da, db := s.apply(a), s.apply(b); da != db {
			t.Fatalf("seed %d: follow-up %d %+v: %v after NTRun, %v after per-line", seed, i, s, da, db)
		}
	}
	checkTwinState(t, seed, a, b)
}

func checkTwinState(t *testing.T, seed int64, a, b *Host) {
	t.Helper()
	for i := 0; i < 2; i++ {
		ca, cb := a.Core(i), b.Core(i)
		for _, r := range [][2]*sim.Resource{{ca.issue, cb.issue}, {ca.ntEgress, cb.ntEgress}} {
			if r[0].Busy() != r[1].Busy() || r[0].Claims() != r[1].Claims() || r[0].FreeAt() != r[1].FreeAt() {
				t.Fatalf("seed %d: core %d %s: busy %v/%v claims %d/%d", seed, i, r[0].Name(),
					r[0].Busy(), r[1].Busy(), r[0].Claims(), r[1].Claims())
			}
		}
		for _, cr := range [][2]*sim.Credits{{ca.loadCred, cb.loadCred}, {ca.ntLoadCred, cb.ntLoadCred},
			{ca.wcCred, cb.wcCred}, {ca.cxlLoad, cb.cxlLoad}, {ca.cxlStore, cb.cxlStore}} {
			if cr[0].InFlight() != cr[1].InFlight() {
				t.Fatalf("seed %d: core %d %s in flight %d/%d", seed, i, cr[0].Name(), cr[0].InFlight(), cr[1].InFlight())
			}
		}
	}
	if a.LLC().Stats() != b.LLC().Stats() {
		t.Fatalf("seed %d: LLC stats %+v / %+v", seed, a.LLC().Stats(), b.LLC().Stats())
	}
	ra, wa, ia := a.Home().Stats()
	rb, wb, ib := b.Home().Stats()
	if ra != rb || wa != wb || ia != ib {
		t.Fatalf("seed %d: home stats %d/%d/%d vs %d/%d/%d", seed, ra, wa, ia, rb, wb, ib)
	}
	if a.Channels().TotalWrites() != b.Channels().TotalWrites() {
		t.Fatalf("seed %d: channel writes %d/%d", seed, a.Channels().TotalWrites(), b.Channels().TotalWrites())
	}
	if a.Dev.Stats() != b.Dev.Stats() {
		t.Fatalf("seed %d: device stats %+v / %+v", seed, a.Dev.Stats(), b.Dev.Stats())
	}
	if da, db := a.Dev.DMC(), b.Dev.DMC(); da != nil && da.Stats() != db.Stats() {
		t.Fatalf("seed %d: DMC stats %+v / %+v", seed, da.Stats(), db.Stats())
	}
}

func TestNTRunRejectsCachedOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NTRun accepted a cacheable load")
		}
	}()
	fixture(t).Core(0).NTRun(cxl.Ld, 0x1000, 8, 0)
}

// clusterHost is the cluster model's replica host: the fabric's default
// node (1 MiB, 16-way LLC, 4 cores, no device) with KV blocks of 8 lines.
func clusterHost() *Host {
	return MustNew(timing.Default(), Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 4})
}

// expanderHost is clusterHost with a Type-3 expander attached: the infer
// model's kv@t3 tier, whose KV blocks stream over CXL.mem.
func expanderHost(tb testing.TB) *Host {
	h := clusterHost()
	if _, err := h.Attach(cxl.Type3); err != nil {
		tb.Fatal(err)
	}
	return h
}

// ntStepGap spaces ntStepKV steps. It keeps the core's credit pools in
// steady state: at 50 ns the issue rate outruns DRAM service, grants run
// ever further ahead of now, and the pools' early-retire lists grow
// without bound.
const ntStepGap = 200 * sim.Nanosecond

// KV block bases: host DRAM for the cluster replica, device memory for
// the expander.
var (
	kvHost   = phys.Addr(4 << 30)
	kvDevice = mem.RegionDevice.Base + 4<<20
)

// ntStepKV is one decode-shaped step: an 8-line nt-ld of a KV block at
// base and a 1-line nt-st append, both issued at the step start.
func ntStepKV(c *Core, base phys.Addr, blk int, now sim.Time) sim.Time {
	addr := base + phys.Addr(blk%64*8*phys.LineSize)
	d := c.NTRun(cxl.NtLd, addr, 8, now)
	return max(d, c.NTRun(cxl.NtSt, addr+7*phys.LineSize, 1, now))
}

// kvStepper returns a step func that issues ntStepKV on c at base, one
// ntStepGap after the last, warmed up to steady state.
func kvStepper(c *Core, base phys.Addr) func() {
	var now sim.Time
	blk := 0
	step := func() {
		ntStepKV(c, base, blk, now)
		blk++
		now += ntStepGap
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	return step
}

func TestNTRunZeroAllocs(t *testing.T) {
	step := kvStepper(clusterHost().Core(0), kvHost)
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("NTRun allocates %.1f times per step", n)
	}
}

// TestNTRunDeviceZeroAllocs holds the device-memory runs to the same
// contract on the expander. It counts bytes, not allocations: one
// 64-byte line per step is carved from a slab, so a payload materialized
// per line rounds to zero allocations per step.
func TestNTRunDeviceZeroAllocs(t *testing.T) {
	step := kvStepper(expanderHost(t).Core(0), kvDevice)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Fatalf("1000 device KV steps allocated %d bytes", got)
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("NTRun allocates %.1f times per device step", n)
	}
}

// BenchmarkNTRun times the host core access path at the cluster model's
// shape: per op, one 8-line nt-ld KV block read and one 1-line nt-st.
func BenchmarkNTRun(b *testing.B) {
	benchmarkKV(b, clusterHost().Core(0), kvHost)
}

// BenchmarkNTRunDevice is BenchmarkNTRun on the expander: one H2D nt op
// per line over CXL.mem, the infer model's kv@t3 tier.
func BenchmarkNTRunDevice(b *testing.B) {
	benchmarkKV(b, expanderHost(b).Core(0), kvDevice)
}

func benchmarkKV(b *testing.B, c *Core, base phys.Addr) {
	var now sim.Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ntStepKV(c, base, i, now)
		now += ntStepGap
	}
}
