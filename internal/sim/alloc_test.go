package sim

import "testing"

// These tests pin the engine's zero-allocation contract: once the event
// heap and a Proc's step FIFO have grown to their working size, a
// steady-state schedule+dispatch cycle must not allocate, for every
// scheduling form the hot paths use. A regression here silently taxes every
// experiment, the fuzzing harness and cxlsimd, so it fails the build rather
// than a benchmark eyeball.

// measureAllocs warms the engine with one round first so one-time capacity
// growth (heap slice, step FIFO) is excluded from the steady state.
func measureAllocs(t *testing.T, name string, round func()) {
	t.Helper()
	round() // warm-up: grow heap and FIFO capacity
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("%s: %.1f allocs per steady-state round, want 0", name, avg)
	}
}

func TestAtCallZeroAllocs(t *testing.T) {
	e := NewEngine()
	type state struct{ n int }
	s := &state{}
	fn := func(arg any) { arg.(*state).n++ }
	measureAllocs(t, "AtCall", func() {
		e.AtCall(e.Now(), fn, s)
		e.AtCall(e.Now()+Nanosecond, fn, s)
		e.Run()
	})
}

func TestProcScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	p := NewProc(e, "p", nil)
	n := 0
	step := func(p *Proc) { n++ }
	measureAllocs(t, "Proc.Schedule", func() {
		p.Schedule(step)
		p.Sleep(Nanosecond)
		p.Schedule(step)
		e.Run()
	})
}

// TestCreditsChurnZeroAllocs pins the Acquire/Complete cycle and the
// Pipeline run of a saturated pool: both work in the fixed ring.
func TestCreditsChurnZeroAllocs(t *testing.T) {
	c := NewCredits("alloc", 4)
	now := Time(0)
	measureAllocs(t, "Credits churn", func() {
		for i := 0; i < 16; i++ {
			now += 10
			s := c.Acquire(now)
			c.Complete(s + 100)
		}
	})
	p := NewCredits("alloc", 4)
	measureAllocs(t, "Credits Pipeline", func() {
		now = p.Pipeline(now, 10, 100, 16)
	})
}
