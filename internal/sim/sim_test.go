package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d", Nanosecond)
	}
	if Second != 1_000_000_000_000 {
		t.Fatalf("Second = %d", Second)
	}
	if got := (1500 * Picosecond).Nanoseconds(); got != 1.5 {
		t.Fatalf("Nanoseconds = %v", got)
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Fatalf("Microseconds = %v", got)
	}
	if got := FromNanos(1.5); got != 1500 {
		t.Fatalf("FromNanos(1.5) = %v", got)
	}
	if got := FromNanos(0.0004); got != 0 {
		t.Fatalf("FromNanos rounding = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Nanosecond, "1500.00ns"},
		{25 * Microsecond, "25.00us"},
		{12 * Millisecond, "12.000ms"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.AtCall(30, func(any) { order = append(order, 3) }, nil)
	e.AtCall(10, func(any) { order = append(order, 1) }, nil)
	e.AtCall(20, func(any) { order = append(order, 2) }, nil)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
	if e.Executed() != 3 {
		t.Fatalf("Executed = %d", e.Executed())
	}
}

func TestEngineFIFOWithinTimestamp(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtCall(100, func(any) { order = append(order, i) }, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.AtCall(5, func(any) {
		hits = append(hits, e.Now())
		e.AtCall(e.Now()+7, func(any) { hits = append(hits, e.Now()) }, nil)
	}, nil)
	e.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var n int
	for _, at := range []Time{10, 20, 30, 40} {
		e.AtCall(at, func(any) { n++ }, nil)
	}
	e.RunUntil(25)
	if n != 2 {
		t.Fatalf("events run = %d", n)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if n != 4 || e.Now() != 40 {
		t.Fatalf("after Run: n=%d now=%v", n, e.Now())
	}
}

func TestEngineAdvance(t *testing.T) {
	e := NewEngine()
	var n int
	e.AtCall(10, func(any) { n++ }, nil)
	e.Advance(50)
	if n != 1 || e.Now() != 50 {
		t.Fatalf("n=%d now=%v", n, e.Now())
	}
}

// TestEngineFIFOAcrossSchedulingForms pins that AtCall and Proc.Schedule
// share one sequence counter: events at the same timestamp dispatch in
// scheduling order regardless of which API scheduled them.
func TestEngineFIFOAcrossSchedulingForms(t *testing.T) {
	e := NewEngine()
	p := NewProc(e, "p", nil)
	p.Sleep(100)
	var order []int
	add := func(arg any) { order = append(order, *arg.(*int)) }
	vals := make([]int, 9)
	for i := range vals {
		vals[i] = i
		if i%2 == 0 {
			e.AtCall(100, add, &vals[i])
		} else {
			p.Schedule(func(*Proc) { order = append(order, i) })
		}
	}
	e.Run()
	if len(order) != len(vals) {
		t.Fatalf("dispatched %d of %d events", len(order), len(vals))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-form same-timestamp order = %v", order)
		}
	}
}

func TestEnginePastSchedulePanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(100, func(any) {}, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.AtCall(50, func(any) {}, nil)
}

// oracleEvent is one event TestEngineMatchesSortedOracle schedules: its
// time, the schedule tick the test counts alongside the engine's, and
// the callback slot the engine gives it.
type oracleEvent struct {
	id   int
	when Time
	seq  uint64
	slot uint32
}

// engineOracle drives an engine with a seeded random program and
// records every schedule and every dispatch.
type engineOracle struct {
	t      *testing.T
	rng    *rand.Rand
	e      *Engine
	seq    uint64
	events []*oracleEvent
	got    []int
	procs  []*Proc
	// steps[i] holds the events of procs[i]'s pending steps, in order.
	steps [][]*oracleEvent
	// budget bounds the events callbacks may still schedule.
	budget int
	// peak is the most events ever pending at once.
	peak int
}

// note records an event about to be scheduled at when: the engine takes
// the last free slot, or appends one.
func (o *engineOracle) note(when Time) *oracleEvent {
	o.seq++
	s := uint32(len(o.e.slots))
	if n := len(o.e.free); n > 0 {
		s = o.e.free[n-1]
	}
	ev := &oracleEvent{id: len(o.events), when: when, seq: o.seq, slot: s}
	o.events = append(o.events, ev)
	o.peak = max(o.peak, o.e.Pending()+1)
	return ev
}

func (o *engineOracle) at(when Time) {
	o.e.AtCall(when, o.fire, o.note(when))
}

func (o *engineOracle) fire(arg any) { o.dispatched(arg.(*oracleEvent)) }

// schedule queues a step on proc i after d of sleep from the later of its
// clock and now.
func (o *engineOracle) schedule(i int, d Time) {
	p := o.procs[i]
	p.AdvanceTo(o.e.Now())
	p.Sleep(d)
	o.steps[i] = append(o.steps[i], o.note(p.Now()))
	p.Schedule(o.step)
}

func (o *engineOracle) step(p *Proc) {
	for i, q := range o.procs {
		if q == p {
			ev := o.steps[i][0]
			o.steps[i] = o.steps[i][1:]
			o.dispatched(ev)
			return
		}
	}
}

// dispatched checks one dispatch and lets it schedule up to two more
// events: at now (a same-instant tie behind everything pending) or
// later, through AtCall or a Proc.
func (o *engineOracle) dispatched(ev *oracleEvent) {
	if o.e.Now() != ev.when {
		o.t.Fatalf("event %d dispatched at %v, scheduled for %v", ev.id, o.e.Now(), ev.when)
	}
	if sl := o.e.slots[ev.slot]; sl.call != nil || sl.arg != nil {
		o.t.Fatalf("event %d: slot %d still holds its callback at dispatch", ev.id, ev.slot)
	}
	o.got = append(o.got, ev.id)
	for k := o.rng.Intn(3); k > 0 && o.budget > 0; k-- {
		o.budget--
		d := Time(0)
		if o.rng.Intn(3) > 0 {
			d = Time(o.rng.Intn(40))
		}
		if o.rng.Intn(4) == 0 {
			o.schedule(o.rng.Intn(len(o.procs)), d)
		} else {
			o.at(o.e.Now() + d)
		}
	}
}

// TestEngineMatchesSortedOracle runs seeded random programs — bursts of
// AtCall with many same-time ties, callbacks that schedule at Now() and
// later, interleaved Proc.Schedule chains, RunUntil and Advance
// deadlines, and a burst past 4096 pending events that drains so its
// slots are reused — and requires the dispatch sequence to equal the
// schedule sorted by (when, seq). Every event's time is at or after the
// clock when it is scheduled and seq only grows, so the whole dispatch
// sequence, not just each batch, is that sort. Each dispatch also finds
// its callback slot already cleared: the engine keeps no reference to
// arg once an event runs.
func TestEngineMatchesSortedOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		o := &engineOracle{t: t, rng: rng, e: e, budget: 3000}
		for i := 0; i < 3; i++ {
			o.procs = append(o.procs, NewProc(e, fmt.Sprint("p", i), nil))
			o.steps = append(o.steps, nil)
		}
		for phase := 0; phase < 30; phase++ {
			burst := 1 + rng.Intn(60)
			if phase == 10 && seed%4 == 0 {
				burst = 4500 // past 4096 pending
			}
			for i := 0; i < burst; i++ {
				if rng.Intn(5) == 0 {
					o.schedule(rng.Intn(len(o.procs)), Time(rng.Intn(30)))
				} else {
					o.at(e.Now() + Time(rng.Intn(50)))
				}
			}
			switch rng.Intn(3) {
			case 0:
				e.RunUntil(e.Now() + Time(rng.Intn(40)))
			case 1:
				e.Advance(e.Now() + Time(rng.Intn(40)))
			default:
				e.Run()
			}
			if phase == 10 && seed%4 == 0 && len(e.slots) < 4096 {
				t.Fatalf("seed %d: burst left %d slots, want over 4096", seed, len(e.slots))
			}
		}
		e.Run()
		if e.Pending() != 0 || len(o.got) != len(o.events) {
			t.Fatalf("seed %d: dispatched %d of %d events, %d pending", seed, len(o.got), len(o.events), e.Pending())
		}
		want := slices.Clone(o.events)
		slices.SortFunc(want, func(a, b *oracleEvent) int {
			if a.when != b.when {
				return cmp.Compare(a.when, b.when)
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for i, ev := range want {
			if o.got[i] != ev.id {
				t.Fatalf("seed %d: dispatch %d is event %d, sorted order has %d", seed, i, o.got[i], ev.id)
			}
		}
		// Drained: every slot is free and cleared, and the slab holds
		// one slot per event ever pending at once — freed slots were
		// reused, never left behind for growth.
		if len(e.free) != len(e.slots) || len(e.slots) != o.peak {
			t.Fatalf("seed %d: %d free of %d slots, at most %d events pending", seed, len(e.free), len(e.slots), o.peak)
		}
		for i, sl := range e.slots {
			if sl.call != nil || sl.arg != nil {
				t.Fatalf("seed %d: drained slot %d still holds a callback", seed, i)
			}
		}
	}
}

// TestEngineSeqLimitPanics drives the schedule tick to the packing limit
// without scheduling that many events: the last tick that fits still
// dispatches in order, and the next AtCall panics instead of wrapping
// into the slot bits.
func TestEngineSeqLimitPanics(t *testing.T) {
	e := NewEngine()
	e.seq = maxSeq - 2
	var order []int
	add := func(arg any) { order = append(order, *arg.(*int)) }
	a, b := 1, 2
	e.AtCall(5, add, &a)
	e.AtCall(5, add, &b)
	e.Run()
	if !slices.Equal(order, []int{1, 2}) {
		t.Fatalf("order at the seq limit = %v, want [1 2]", order)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AtCall past the seq limit did not panic")
		}
	}()
	e.AtCall(5, add, &a)
}

func TestResourceSerialization(t *testing.T) {
	r := NewResource("link")
	// Three back-to-back claims at the same instant serialize.
	s1 := r.Claim(0, 10)
	s2 := r.Claim(0, 10)
	s3 := r.Claim(0, 10)
	if s1 != 0 || s2 != 10 || s3 != 20 {
		t.Fatalf("starts = %v %v %v", s1, s2, s3)
	}
	if r.FreeAt() != 30 {
		t.Fatalf("FreeAt = %v", r.FreeAt())
	}
	if r.Busy() != 30 {
		t.Fatalf("Busy = %v", r.Busy())
	}
	if r.Claims() != 3 {
		t.Fatalf("Claims = %d", r.Claims())
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource("x")
	r.Claim(0, 5)
	s := r.Claim(100, 5) // arrives after idle period: starts immediately
	if s != 100 {
		t.Fatalf("start = %v", s)
	}
	if r.Busy() != 10 {
		t.Fatalf("Busy = %v", r.Busy())
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Claim(0, 5)
	r.Reset()
	if r.FreeAt() != 0 || r.Busy() != 0 || r.Claims() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestResourceThroughputProperty(t *testing.T) {
	// Property: N claims of occupancy c, issued arbitrarily but no earlier
	// than their predecessors, finish no earlier than N*c.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		const n = 100
		c := Time(rng.Intn(20) + 1)
		now := Time(0)
		var last Time
		for i := 0; i < n; i++ {
			now += Time(rng.Intn(3)) // sometimes bunched, sometimes spread
			start := r.Claim(now, c)
			if start < now {
				return false
			}
			last = start + c
		}
		return last >= Time(n)*c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCreditsUnlimitedUnderCapacity(t *testing.T) {
	c := NewCredits("mshr", 4)
	for i := 0; i < 4; i++ {
		if start := c.Acquire(0); start != 0 {
			t.Fatalf("acquire %d delayed to %v", i, start)
		}
		c.Complete(100)
	}
	if c.InFlight() != 4 {
		t.Fatalf("InFlight = %d", c.InFlight())
	}
}

func TestCreditsBlockAtCapacity(t *testing.T) {
	c := NewCredits("mshr", 2)
	c.Acquire(0)
	c.Complete(50)
	c.Acquire(0)
	c.Complete(80)
	// Third acquire must wait for the earliest completion (50).
	if start := c.Acquire(0); start != 50 {
		t.Fatalf("start = %v, want 50", start)
	}
	c.Complete(120)
	// Fourth waits for the next earliest (80).
	if start := c.Acquire(0); start != 80 {
		t.Fatalf("start = %v, want 80", start)
	}
}

func TestCreditsRetireByNow(t *testing.T) {
	c := NewCredits("mshr", 1)
	c.Acquire(0)
	c.Complete(10)
	// At time 20 the outstanding op has retired; no delay.
	if start := c.Acquire(20); start != 20 {
		t.Fatalf("start = %v", start)
	}
}

func TestCreditsPipelineBandwidth(t *testing.T) {
	// With capacity k and per-op latency L issued back-to-back, op i starts at
	// max(0, (i-k+1) * L/k)... simplest invariant: completion of op N with
	// capacity k and fixed latency L is ceil(N/k)*L when issue is free.
	const k, n = 4, 16
	const L = Time(100)
	c := NewCredits("pipe", k)
	var last Time
	for i := 0; i < n; i++ {
		start := c.Acquire(0)
		done := start + L
		c.Complete(done)
		last = done
	}
	if want := Time(n/k) * L; last != want {
		t.Fatalf("last completion = %v, want %v", last, want)
	}
}

// TestCreditsExhaustionInFlightCount is the regression test for the
// Acquire exhaustion branch: after the retire-by-now loop every
// outstanding completion is strictly in the future, so the pop that frees
// a credit must consume exactly one still-in-flight completion — never a
// credit that retirement already freed — and the in-flight count must
// reflect it.
func TestCreditsExhaustionInFlightCount(t *testing.T) {
	c := NewCredits("mshr", 2)
	// Fill the pool with completions at 50 and 80.
	c.Complete(50)
	c.Complete(80)
	if c.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", c.InFlight())
	}
	// Acquire at 10: nothing has retired, pool exhausted. Service starts at
	// the earliest completion (50), and that completion's credit is the one
	// handed over — exactly one entry leaves the multiset.
	if start := c.Acquire(10); start != 50 {
		t.Fatalf("start = %v, want 50", start)
	}
	if c.InFlight() != 1 {
		t.Fatalf("InFlight after exhausted Acquire = %d, want 1 (only the freed credit may be popped)", c.InFlight())
	}
	c.Complete(120)
	// Acquire at 90: the completion at 80 retires in the loop, freeing a
	// slot — the exhaustion branch must NOT run, and no in-flight credit
	// (120) may be consumed.
	if start := c.Acquire(90); start != 90 {
		t.Fatalf("start = %v, want 90", start)
	}
	if c.InFlight() != 1 {
		t.Fatalf("InFlight after retire-path Acquire = %d, want 1 (the 120 completion must survive)", c.InFlight())
	}
}

func TestCreditsInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCredits("bad", 0)
}

// creditsRef is an obviously-correct reference model of Credits: a plain
// multiset of completion times, re-sorted on every mutation.
type creditsRef struct {
	capacity int
	pending  []Time
}

func (r *creditsRef) acquire(now Time) Time {
	start := now
	kept := r.pending[:0]
	for _, t := range r.pending {
		if t > start {
			kept = append(kept, t)
		}
	}
	r.pending = kept
	if len(r.pending) >= r.capacity {
		sort.Slice(r.pending, func(i, j int) bool { return r.pending[i] < r.pending[j] })
		start = r.pending[0]
		r.pending = r.pending[1:]
	}
	return start
}

func (r *creditsRef) complete(t Time) { r.pending = append(r.pending, t) }

// TestCreditsMatchesReference drives the sorted-ring Credits through random
// interleavings of Acquire and Complete — including out-of-order completions
// and non-monotone acquire times, which no current caller produces but the
// API permits — and checks every returned start and in-flight count against
// the reference multiset model.
func TestCreditsMatchesReference(t *testing.T) {
	f := func(ops []int16, capSeed uint8) bool {
		capacity := 1 + int(capSeed%8)
		c := NewCredits("prop", capacity)
		ref := &creditsRef{capacity: capacity}
		for _, op := range ops {
			if op < 0 {
				tm := Time(-op)
				c.Complete(tm)
				ref.complete(tm)
			} else {
				got := c.Acquire(Time(op))
				want := ref.acquire(Time(op))
				if got != want {
					return false
				}
			}
			if c.InFlight() != len(ref.pending) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcComputeOnSharedCore(t *testing.T) {
	e := NewEngine()
	core := NewResource("core0")
	a := NewProc(e, "a", core)
	b := NewProc(e, "b", core)
	a.Compute(100)
	// b starts at 0 but the core is busy until 100.
	done := b.Compute(50)
	if done != 150 {
		t.Fatalf("b done at %v, want 150", done)
	}
}

func TestProcSleepDoesNotHoldCore(t *testing.T) {
	e := NewEngine()
	core := NewResource("core0")
	a := NewProc(e, "a", core)
	b := NewProc(e, "b", core)
	a.Sleep(100) // yields the CPU
	if done := b.Compute(50); done != 50 {
		t.Fatalf("b done at %v, want 50 (core should be free during a's sleep)", done)
	}
	if a.Now() != 100 {
		t.Fatalf("a.Now = %v", a.Now())
	}
}

func TestProcAdvanceTo(t *testing.T) {
	e := NewEngine()
	p := NewProc(e, "p", nil)
	p.AdvanceTo(500)
	if p.Now() != 500 {
		t.Fatalf("Now = %v", p.Now())
	}
	p.AdvanceTo(100) // backwards is a no-op
	if p.Now() != 500 {
		t.Fatalf("Now after backwards AdvanceTo = %v", p.Now())
	}
}

func TestProcSchedule(t *testing.T) {
	e := NewEngine()
	p := NewProc(e, "p", nil)
	p.Sleep(42)
	var ran Time
	p.Schedule(func(p *Proc) { ran = e.Now() })
	e.Run()
	if ran != 42 {
		t.Fatalf("scheduled at %v, want 42", ran)
	}
}

// TestProcScheduleOrder pins the step FIFO: a Proc holding several pending
// steps, at one instant and at increasing local times, runs each step's
// own fn in scheduling order, interleaved with other AtCall events at the
// same instants exactly as the shared sequence counter orders them.
func TestProcScheduleOrder(t *testing.T) {
	e := NewEngine()
	p := NewProc(e, "p", nil)
	var got []string
	rec := func(arg any) { got = append(got, arg.(string)) }
	step := func(name string) func(*Proc) {
		return func(*Proc) { got = append(got, name) }
	}

	p.Sleep(10)
	p.Schedule(step("s1@10"))
	e.AtCall(10, rec, "e1@10")
	p.Schedule(step("s2@10"))
	p.Schedule(step("s3@10"))
	e.AtCall(10, rec, "e2@10")
	p.Sleep(10)
	p.Schedule(func(p *Proc) {
		got = append(got, "s4@20")
		p.Schedule(step("s7@30")) // queued behind s5 and s6
	})
	e.AtCall(20, rec, "e3@20")
	p.Sleep(10)
	p.Schedule(step("s5@30"))
	e.AtCall(30, rec, "e4@30")
	p.Schedule(step("s6@30"))
	e.AtCall(20, rec, "e5@20")
	e.Run()

	want := []string{"s1@10", "e1@10", "s2@10", "s3@10", "e2@10",
		"s4@20", "e3@20", "e5@20", "s5@30", "e4@30", "s6@30", "s7@30"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}

	// A chain that never drains (each step schedules one successor while
	// two more are pending) must keep its order and reuse its slots.
	got = got[:0]
	n := 0
	var chain func(*Proc)
	chain = func(p *Proc) {
		got = append(got, fmt.Sprint(n))
		n++
		if n < 100 {
			p.Sleep(1)
			p.Schedule(chain)
		}
	}
	for i := 0; i < 3; i++ {
		p.Schedule(chain)
	}
	e.Run()
	for i, s := range got {
		if s != fmt.Sprint(i) {
			t.Fatalf("chain step %d ran as %s", i, s)
		}
	}
	if len(got) != 102 || cap(p.steps) > 8 {
		t.Fatalf("chain ran %d steps with FIFO capacity %d, want 102 and <= 8", len(got), cap(p.steps))
	}
}

func TestProcRestart(t *testing.T) {
	e := NewEngine()
	e.AtCall(100, func(any) {}, nil)
	p := NewProc(e, "req", nil)
	p.Sleep(40) // local clock runs ahead: 40
	e.Run()     // engine reaches 100
	p.Restart()
	if p.Now() != 100 {
		t.Fatalf("Now after Restart = %v, want 100 (engine time)", p.Now())
	}
	p.AdvanceTo(150)
	if p.Now() != 150 {
		t.Fatalf("Now = %v", p.Now())
	}
}

func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AtCall(e.Now()+1, fn, nil)
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkResourceClaim(b *testing.B) {
	r := NewResource("bench")
	for i := 0; i < b.N; i++ {
		r.Claim(Time(i), 1)
	}
}
