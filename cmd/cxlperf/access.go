package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	cxl2sim "repro"
	traffic "repro/internal/workload"
)

// access drives the paper's §V access paths directly through
// cxl2sim.System, with no runner, engine or HTTP in the way: the cache,
// coherence, host, device and memory models do nearly all the work.
//
// A pass is a fixed seeded stream of chunks×chunkOps accesses on a
// fresh System, so caches start empty and every pass is the same
// simulation; ops are the chunks, timed one by one. Each chunk's summary
// (completion times and hit flags) must equal the reference pass run in
// set-up.
type access struct {
	ops    []accessOp
	chunks int
	ref    []uint64 // per-chunk summaries of the reference pass
	sim    accessCounts
	hist   *callHist
}

const chunkOps = 4096

// The working sets: ~4× the 128 KiB HMC in host memory for D2H, ~4× the
// 32 KiB DMC in device memory for D2D, whose first half is in device
// bias. H2D targets only the host-bias half, because an H2D access to a
// device-bias region flips it back to host bias.
const (
	hostLines = 8192
	devLines  = 2048
	biasLines = devLines / 2
)

var (
	hostBase = cxl2sim.Addr(0x0800_0000)
	devBase  = cxl2sim.DeviceMemoryBase + cxl2sim.Addr(32<<20)
)

type accessKind uint8

const (
	kindD2H accessKind = iota
	kindD2D
	kindH2D
)

var kindNames = [...]string{"d2h", "d2d", "h2d"}

type accessOp struct {
	kind accessKind
	hint cxl2sim.D2HReq
	hop  cxl2sim.HostOp
	core int
	addr cxl2sim.Addr
}

// accessCounts are the simulated statistics of one pass.
type accessCounts struct {
	n                     [3]int
	simNs                 [3]float64
	hmcHits, dmcHits, llc int
}

func setupAccess(e *env) (instance, error) {
	chunks := 64
	if e.smoke {
		chunks = 4
	}
	a := &access{chunks: chunks, hist: &callHist{}}
	a.ops = accessStream(e.seed, chunks*chunkOps)

	sys, err := newAccessSystem()
	if err != nil {
		return nil, err
	}
	var raw []byte
	for c := 0; c < chunks; c++ {
		raw = binary.LittleEndian.AppendUint64(raw, runChunk(sys, a.chunk(c), &a.sim, nil))
	}
	raw = e.reference(raw)
	for c := 0; c < chunks; c++ {
		a.ref = append(a.ref, binary.LittleEndian.Uint64(raw[8*c:]))
	}
	return a, nil
}

// accessStream draws the seeded op mix: a third each of D2H (all six
// hints), D2D (the five hints D2D accepts) and H2D (ld, nt-ld, st, nt-st
// from four cores), with Zipf(0.99) addresses over each working set.
func accessStream(seed int64, n int) []accessOp {
	d2h := []cxl2sim.D2HReq{cxl2sim.NCP, cxl2sim.NCRead, cxl2sim.NCWrite, cxl2sim.CORead, cxl2sim.COWrite, cxl2sim.CSRead}
	d2d := []cxl2sim.D2HReq{cxl2sim.NCRead, cxl2sim.NCWrite, cxl2sim.CORead, cxl2sim.COWrite, cxl2sim.CSRead}
	h2d := []cxl2sim.HostOp{cxl2sim.Ld, cxl2sim.NtLd, cxl2sim.St, cxl2sim.NtSt}
	rng := rand.New(rand.NewSource(seed))
	zHost := traffic.NewZipf(hostLines, 0.99)
	zDev := traffic.NewZipf(devLines, 0.99)
	zH2D := traffic.NewZipf(devLines-biasLines, 0.99)
	// An odd multiplier permutes ranks over a power-of-two line count, so
	// the hot lines spread over the cache sets instead of packing the
	// first ones.
	line := func(rank uint64, lines uint64) cxl2sim.Addr {
		return cxl2sim.Addr(rank*2654435761%lines) * cxl2sim.LineSize
	}
	ops := make([]accessOp, n)
	for i := range ops {
		switch accessKind(rng.Intn(3)) {
		case kindD2H:
			ops[i] = accessOp{kind: kindD2H, hint: d2h[rng.Intn(len(d2h))],
				addr: hostBase + line(zHost.Next(rng), hostLines)}
		case kindD2D:
			ops[i] = accessOp{kind: kindD2D, hint: d2d[rng.Intn(len(d2d))],
				addr: devBase + line(zDev.Next(rng), devLines)}
		default:
			ops[i] = accessOp{kind: kindH2D, hop: h2d[rng.Intn(len(h2d))], core: rng.Intn(4),
				addr: devBase + biasLines*cxl2sim.LineSize + line(zH2D.Next(rng), devLines-biasLines)}
		}
	}
	return ops
}

func newAccessSystem() (*cxl2sim.System, error) {
	sys, err := cxl2sim.NewSystem(cxl2sim.Config{})
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	sys.EnterDeviceBias(devBase, biasLines*cxl2sim.LineSize, 0)
	return sys, nil
}

func (a *access) chunk(c int) []accessOp { return a.ops[c*chunkOps : (c+1)*chunkOps] }

// runChunk issues ops back to back, each at the previous one's completion,
// from idle timing resources, and folds every completion time and hit flag
// into one summary. counts and hist, when non-nil, collect the simulated
// statistics and the host time of each call.
func runChunk(sys *cxl2sim.System, ops []accessOp, counts *accessCounts, hist *callHist) uint64 {
	sys.ResetTiming()
	var now cxl2sim.Time
	sum := uint64(14695981039346656037)
	for i := range ops {
		op := &ops[i]
		var t0 time.Time
		if hist != nil {
			t0 = time.Now()
		}
		var r cxl2sim.AccessResult
		switch op.kind {
		case kindD2H:
			r = sys.D2H(op.hint, op.addr, nil, now)
		case kindD2D:
			r = sys.D2D(op.hint, op.addr, nil, now)
		default:
			r = sys.H2D(op.core, op.hop, op.addr, nil, now)
		}
		if hist != nil {
			hist.add(op.kind, time.Since(t0))
		}
		flags := uint64(0)
		if r.HMCHit {
			flags |= 1
		}
		if r.DMCHit {
			flags |= 2
		}
		if r.LLCHit {
			flags |= 4
		}
		sum = (sum ^ uint64(r.Done)<<3 ^ flags) * 1099511628211
		if counts != nil {
			counts.n[op.kind]++
			counts.simNs[op.kind] += (r.Done - now).Nanoseconds()
			counts.hmcHits += int(flags & 1)
			counts.dmcHits += int(flags >> 1 & 1)
			counts.llc += int(flags >> 2 & 1)
		}
		now = r.Done
	}
	return sum
}

func (a *access) digest() string {
	h := sha256.New()
	for _, s := range a.ref {
		h.Write(binary.LittleEndian.AppendUint64(nil, s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (a *access) close() {}

func (a *access) measure(window time.Duration, tr *tracer) phase {
	var hist *callHist
	if tr != nil {
		*a.hist = callHist{}
		hist = a.hist
	}
	var sys *cxl2sim.System
	next := a.chunks
	return closedLoop(window, 1, func() (time.Duration, float64, error) {
		if next == a.chunks {
			var err error
			if sys, err = newAccessSystem(); err != nil {
				return 0, 0, err
			}
			next = 0
		}
		c := next
		next++
		t0 := time.Now()
		got := runChunk(sys, a.chunk(c), nil, hist)
		end := time.Now()
		tr.add(span{Name: "access.chunk", Detail: fmt.Sprint(c)}, t0, end)
		d := end.Sub(t0)
		if got != a.ref[c] {
			return d, 0, fmt.Errorf("chunk %d summary %016x, reference %016x", c, got, a.ref[c])
		}
		return d, chunkOps, nil
	})
}

// layers reports the host time per call of each access path (traced
// phase) and the simulated statistics of the reference pass, each ratio
// and mean with its base count.
func (a *access) layers(_ *tracer, _ phase, m metrics) {
	m.set("device.d2h_call_ns_p50", a.hist.p50(kindD2H))
	m.set("device.d2d_call_ns_p50", a.hist.p50(kindD2D))
	m.set("host.h2d_call_ns_p50", a.hist.p50(kindH2D))
	s := a.sim
	m.set("device.hmc_hit_ratio", ratio(float64(s.hmcHits), float64(s.n[kindD2H])))
	m.set("device.dmc_hit_ratio", ratio(float64(s.dmcHits), float64(s.n[kindD2D])))
	m.set("host.llc_hit_ratio", ratio(float64(s.llc), float64(s.n[kindD2H]+s.n[kindH2D])))
	for k, name := range kindNames {
		m.set("access.sim_ns_mean."+name, ratio(s.simNs[k], float64(s.n[k])))
		m.set("access.count."+name, float64(s.n[k]))
	}
}

// callHist counts call durations per access kind in 1 ns buckets; the
// last bucket holds everything slower.
type callHist [3][1 << 14]uint32

func (h *callHist) add(k accessKind, d time.Duration) {
	ns := min(int(d), len(h[k])-1)
	h[k][ns]++
}

// p50 is the nearest-rank median in nanoseconds.
func (h *callHist) p50(k accessKind) float64 {
	n := 0
	for _, c := range h[k] {
		n += int(c)
	}
	if n == 0 {
		return 0
	}
	want := rankIndex(n, 500) + 1
	seen := 0
	for ns, c := range h[k] {
		seen += int(c)
		if seen >= want {
			return float64(ns)
		}
	}
	return float64(len(h[k]) - 1)
}
