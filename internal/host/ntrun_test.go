package host

import (
	"math/rand"
	"testing"

	"repro/internal/cxl"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// ntPools are the address windows the NTRun differential test draws
// from: local and remote-socket DRAM, plus the two region boundaries a
// run can straddle (socket 0 into socket 1, socket 1 into device memory).
var ntPools = []phys.Addr{
	0x10000,
	mem.RegionHost1.Base + 0x10000,
	mem.RegionHost0.End() - 16*phys.LineSize,
	mem.RegionHost1.End() - 16*phys.LineSize,
}

// ntStep is one randomized operation replayed identically on both twins.
type ntStep struct {
	core int
	op   cxl.HostOp
	d2h  cxl.D2HReq
	dev  bool // device D2H request rather than a core access
	addr phys.Addr
	now  sim.Time
}

func (s ntStep) apply(h *Host) sim.Time {
	if s.dev {
		return h.Dev.D2H(s.d2h, s.addr, line(0x5a), s.now).Done
	}
	var data []byte
	if s.op == cxl.St || s.op == cxl.NtSt {
		data = line(byte(s.addr))
	}
	return h.Core(s.core).Access(s.op, s.addr, data, s.now).Done
}

// randomNTStep draws a core access or a device ownership request over
// ntPools; D2H requests target host memory only.
func randomNTStep(rng *rand.Rand, now sim.Time) ntStep {
	ops := []cxl.HostOp{cxl.Ld, cxl.St, cxl.NtLd, cxl.NtSt}
	s := ntStep{
		core: rng.Intn(2),
		op:   ops[rng.Intn(len(ops))],
		addr: ntPools[rng.Intn(len(ntPools))] + phys.Addr(rng.Intn(32)*phys.LineSize+rng.Intn(4)),
		now:  now,
	}
	if rng.Intn(5) == 0 {
		s.dev = true
		s.d2h = []cxl.D2HReq{cxl.CORead, cxl.COWrite, cxl.CSRead, cxl.NCWrite}[rng.Intn(4)]
		if s.addr >= mem.RegionHost1.End() {
			s.addr -= 32 * phys.LineSize
		}
	}
	return s
}

// TestNTRunMatchesPerLine pins NTRun against the per-line Access loop it
// replaces, on twin hosts driven through identical randomized histories:
// LLC-resident and device-held lines inside the run, remote-socket runs
// and runs across region boundaries, and `now` on both sides of the issue
// port's free time. Equal return values are not enough — ~200 follow-up
// single-line ops must complete identically on both twins, and every
// resource counter must agree, so the batched path leaves the same state.
func TestNTRunMatchesPerLine(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := fixture(t), fixture(t)
		var now sim.Time
		for i, n := 0, rng.Intn(40); i < n; i++ {
			now += sim.Time(rng.Intn(40)) * sim.Nanosecond
			s := randomNTStep(rng, now)
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
			s := randomNTStep(rng, now)
			if da, db := s.apply(a), s.apply(b); da != db {
				t.Fatalf("seed %d: follow-up %d %+v: %v after NTRun, %v after per-line", seed, i, s, da, db)
			}
		}
		checkTwinState(t, seed, a, b)
	}
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

// ntStepGap spaces ntStepKV steps. It keeps the core's credit pools in
// steady state: at 50 ns the issue rate outruns DRAM service, grants run
// ever further ahead of now, and the pools' early-retire lists grow
// without bound.
const ntStepGap = 200 * sim.Nanosecond

// ntStepKV is one decode-shaped step: an 8-line nt-ld of a KV block and a
// 1-line nt-st append, both issued at the step start.
func ntStepKV(c *Core, blk int, now sim.Time) sim.Time {
	addr := phys.Addr(4<<30) + phys.Addr(blk%64*8*phys.LineSize)
	d := c.NTRun(cxl.NtLd, addr, 8, now)
	return max(d, c.NTRun(cxl.NtSt, addr+7*phys.LineSize, 1, now))
}

func TestNTRunZeroAllocs(t *testing.T) {
	c := clusterHost().Core(0)
	var now sim.Time
	blk := 0
	step := func() {
		ntStepKV(c, blk, now)
		blk++
		now += ntStepGap
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("NTRun allocates %.1f times per step", n)
	}
}

// BenchmarkNTRun times the host core access path at the cluster model's
// shape: per op, one 8-line nt-ld KV block read and one 1-line nt-st.
func BenchmarkNTRun(b *testing.B) {
	c := clusterHost().Core(0)
	var now sim.Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ntStepKV(c, i, now)
		now += ntStepGap
	}
}
