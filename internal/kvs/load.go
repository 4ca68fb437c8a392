package kvs

import (
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/lzc"
	"repro/internal/phys"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// LoadGen drives a set of servers with an open-loop request stream — the
// YCSB-client side of §VII. Arrivals come from a workload.ArrivalSource
// (stationary Poisson, or a diurnal/bursty Temporal source) and
// are scheduled on the engine so request handling interleaves with
// kswapd/ksmd activity in simulated time.
type LoadGen struct {
	eng      *sim.Engine
	servers  []*Server
	gen      *ycsb.Generator
	rng      *rand.Rand
	arrivals workload.ArrivalSource
	// base is Start's engine time, the source's time zero.
	base    sim.Time
	next    int
	stopped bool
}

// NewLoadGen builds a load generator drawing gaps from src: stationary
// Poisson (workload.Poisson) or a temporal model (diurnal curves, burst
// modulation).
func NewLoadGen(eng *sim.Engine, servers []*Server, gen *ycsb.Generator, src workload.ArrivalSource, seed int64) *LoadGen {
	if len(servers) == 0 {
		panic("kvs: servers required")
	}
	if src == nil {
		panic("kvs: arrival source required")
	}
	return &LoadGen{
		eng:      eng,
		servers:  servers,
		gen:      gen,
		rng:      rng.New(seed),
		arrivals: src,
	}
}

// Start schedules the arrival process beginning at the engine's current
// time; it continues until Stop or the engine's RunUntil horizon.
func (l *LoadGen) Start() {
	l.stopped = false
	l.base = l.eng.Now()
	l.scheduleNext(l.eng.Now())
}

// Stop halts further arrivals.
func (l *LoadGen) Stop() { l.stopped = true }

func (l *LoadGen) scheduleNext(now sim.Time) {
	at := now + l.arrivals.GapAt(l.rng, now-l.base)
	if at < now { // GapAt returned Forever and saturated
		at = sim.Forever
	}
	// Arrivals are the densest event stream in the §VII runs; carrying the
	// generator through AtCall keeps the steady state allocation-free where
	// a closure here would allocate per request.
	l.eng.AtCall(at, loadGenArrive, l)
}

func loadGenArrive(arg any) {
	l := arg.(*LoadGen)
	if l.stopped {
		return
	}
	op := l.gen.Next()
	s := l.servers[l.next%len(l.servers)]
	l.next++
	s.Serve(op, l.eng.Now())
	l.scheduleNext(l.eng.Now())
}

// Antagonist is the memory-churning co-runner of the zswap experiment: it
// periodically allocates fresh pages and frees old ones, keeping the system
// under the reclaim watermarks so kswapd stays busy.
type Antagonist struct {
	eng  *sim.Engine
	proc *sim.Proc
	as   *kernel.AddressSpace
	rng  *rand.Rand

	// PagesPerBurst allocations happen every Interval.
	PagesPerBurst int
	Interval      sim.Time
	// Keep bounds the working set: older pages are unmapped beyond it.
	Keep int

	nextVPN uint64
	stopped bool
	// stepFn is the step method bound once, so rescheduling it costs no
	// per-event method-value allocation.
	stepFn func(*sim.Proc)
}

// PollutedLines reports the cumulative LLC displacement of the antagonist's
// page churn (each fresh page streams through the cache).
func (a *Antagonist) PollutedLines() uint64 { return a.nextVPN * phys.LinesPerPage }

// NewAntagonist builds the churner on core (its allocations' direct-reclaim
// work runs there).
func NewAntagonist(eng *sim.Engine, as *kernel.AddressSpace, core *sim.Resource, seed int64) *Antagonist {
	a := &Antagonist{
		eng:           eng,
		proc:          sim.NewProc(eng, "antagonist", core),
		as:            as,
		rng:           rng.New(seed),
		PagesPerBurst: 16,
		Interval:      500 * sim.Microsecond,
		Keep:          256,
	}
	a.stepFn = a.step
	return a
}

// Start begins the churn loop.
func (a *Antagonist) Start() {
	a.stopped = false
	a.proc.AdvanceTo(a.eng.Now())
	a.proc.Schedule(a.stepFn)
}

// Stop halts the loop.
func (a *Antagonist) Stop() { a.stopped = true }

// Allocated reports how many pages the antagonist has mapped so far.
func (a *Antagonist) Allocated() uint64 { return a.nextVPN }

func (a *Antagonist) step(p *sim.Proc) {
	if a.stopped {
		return
	}
	page := lzc.SyntheticPage(a.rng, phys.PageSize, 0.7)
	for i := 0; i < a.PagesPerBurst; i++ {
		if err := a.as.Map(a.nextVPN, page, p); err != nil {
			break // OOM under extreme pressure: retry next burst
		}
		a.nextVPN++
		if a.nextVPN > uint64(a.Keep) {
			a.as.Unmap(a.nextVPN - uint64(a.Keep) - 1)
		}
	}
	p.Sleep(a.Interval)
	p.Schedule(a.stepFn)
}
