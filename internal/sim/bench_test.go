package sim

import "testing"

// The scheduling benchmarks model the two regimes every experiment lives
// in: BenchmarkSchedule is the pure push/pop cost of a heap that stays
// small, and BenchmarkRunDense is a dense timeline of self-rescheduling
// actors — the shape of the §VII simulations (kswapd + ksmd + load
// generator + antagonist all rescheduling themselves every few
// microseconds). BenchmarkCreditsChurn is the Acquire/Complete cycle that
// every modeled memory operation performs, and BenchmarkCreditsPipeline
// the batched form block transfers use.

// BenchmarkSchedule measures one schedule+dispatch round trip through the
// event heap with a trivial, preallocated callback.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtCall(e.Now()+1, fn, nil)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkRunDense measures steady-state dispatch throughput (ns per
// dispatched event) with 64 actors rescheduling themselves at staggered
// 1ns periods, so the heap stays at a realistic working size and every
// push races every pop.
func BenchmarkRunDense(b *testing.B) {
	e := NewEngine()
	const actors = 64
	remaining := b.N
	b.ReportAllocs()
	b.ResetTimer()
	var step func(any)
	step = func(any) {
		if remaining <= 0 {
			return
		}
		remaining--
		e.AtCall(e.Now()+Nanosecond, step, nil)
	}
	for a := 0; a < actors; a++ {
		e.AtCall(Time(a), step, nil)
	}
	e.Run()
}

// BenchmarkScheduleAtCall is BenchmarkSchedule with a pointer argument —
// the form hot callers use.
func BenchmarkScheduleAtCall(b *testing.B) {
	e := NewEngine()
	type state struct{ n int }
	s := &state{}
	fn := func(arg any) { arg.(*state).n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtCall(e.Now()+1, fn, s)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkProcChain measures a self-rescheduling process step — the
// kswapd/ksmd/antagonist loop shape — through Proc.Schedule's step FIFO.
func BenchmarkProcChain(b *testing.B) {
	e := NewEngine()
	p := NewProc(e, "chain", nil)
	remaining := b.N
	var step func(*Proc)
	step = func(p *Proc) {
		if remaining <= 0 {
			return
		}
		remaining--
		p.Sleep(Nanosecond)
		p.Schedule(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	p.Schedule(step)
	e.Run()
}

// BenchmarkCreditsChurn measures the credit-pool cycle of a saturated
// 16-entry pool: retire-by-now, acquire (often waiting on the earliest
// completion), and complete.
func BenchmarkCreditsChurn(b *testing.B) {
	c := NewCredits("bench", 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := c.Acquire(Time(i))
		c.Complete(s + 100)
	}
}

// BenchmarkCreditsPipeline measures one 8-line Pipeline run on a
// saturated 8-credit pool — the cluster's KV block read: a decode step
// issues its block reads back to back at the host's 1.4 ns issue gap, so
// every run after the first finds each nt-load credit held by a 65 ns
// DRAM read.
func BenchmarkCreditsPipeline(b *testing.B) {
	c := NewCredits("bench", 8)
	const gap, svc = 1400 * Picosecond, 65 * Nanosecond
	var t Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Pipeline(t, gap, svc, 8)
		t += 8 * gap
	}
}
