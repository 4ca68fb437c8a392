package sim

// Proc is a cooperative simulated process: a chain of timed steps scheduled
// on the engine, optionally consuming time on a Core. It is the abstraction
// behind kswapd, the ksm scanner, device polling loops and the KVS serving
// loop. A Proc is single-threaded in simulated time; steps run strictly in
// sequence.
type Proc struct {
	eng  *Engine
	name string
	// core, when non-nil, is the CPU core the process runs on; Compute claims
	// it so that co-scheduled processes contend for cycles.
	core *Resource
	// at is the process-local clock: the simulated time at which the previous
	// step finished.
	at Time
	// steps[head:] are the pending step callbacks in scheduling order. Each
	// Schedule appends one and enqueues an event that carries only the
	// Proc; the event pops the head. The slice is reset when it drains, so
	// a chain reuses its backing array.
	steps []func(p *Proc)
	head  int
}

// NewProc creates a process bound to eng, optionally pinned to core (nil for
// a process that consumes no CPU, such as a hardware engine's control loop).
func NewProc(eng *Engine, name string, core *Resource) *Proc {
	return &Proc{eng: eng, name: name, core: core, at: eng.Now()}
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Core returns the core the process is pinned to, or nil.
func (p *Proc) Core() *Resource { return p.core }

// SetCore migrates the process to another core (a floating kernel thread
// rescheduled by the CPU scheduler). Pending work is unaffected; future
// Compute calls claim the new core.
func (p *Proc) SetCore(core *Resource) { p.core = core }

// Now returns the process-local clock.
func (p *Proc) Now() Time { return p.at }

// AdvanceTo moves the process-local clock forward to t (no-op if already
// past). Use it to account for waiting on an externally computed completion
// time, e.g. a memory transaction finishing at t.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.at {
		p.at = t
	}
}

// Sleep advances the process-local clock by d without consuming the core —
// the semantics of yielding the CPU, as kswapd does while the device ACC
// works (§VI-A step 3).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.at += d
}

// Compute advances the process by d of CPU work. If the process is pinned to
// a core the work claims the core, so the step may additionally wait for
// other processes' work to drain; the returned Time is when the work
// completes.
func (p *Proc) Compute(d Time) Time {
	if d < 0 {
		panic("sim: negative compute")
	}
	if p.core != nil {
		start := p.core.Claim(p.at, d)
		p.at = start + d
	} else {
		p.at += d
	}
	return p.at
}

// Restart rebinds the process-local clock to the engine's current time,
// discarding local history. It exists so a server can reuse one Proc across
// many short-lived request chains instead of allocating a Proc per request;
// the caller must ensure the previous chain has fully run (no pending
// Schedule) before restarting.
func (p *Proc) Restart() { p.at = p.eng.Now() }

// Schedule runs fn as an engine event at the process-local clock. The
// callback receives the process so it can continue the chain. A
// preallocated step function (rather than a fresh closure) costs zero
// allocations per step.
//
// Steps run in the order they were scheduled: the local clock never moves
// back while a step is pending (Restart requires none), so the engine
// dispatches this Proc's events in scheduling order, and each pops the
// FIFO's head.
func (p *Proc) Schedule(fn func(p *Proc)) {
	if p.head > 0 && len(p.steps) == cap(p.steps) {
		// Full with dispatched slots at the front: slide the pending steps
		// down instead of growing.
		n := copy(p.steps, p.steps[p.head:])
		clear(p.steps[n:])
		p.steps, p.head = p.steps[:n], 0
	}
	p.steps = append(p.steps, fn)
	p.eng.AtCall(p.at, callProcStep, p)
}

// callProcStep runs the Proc's oldest pending step. The step is popped
// before fn runs, so fn can immediately Schedule its successor.
func callProcStep(arg any) {
	p := arg.(*Proc)
	fn := p.steps[p.head]
	p.steps[p.head] = nil
	p.head++
	if p.head == len(p.steps) {
		p.steps, p.head = p.steps[:0], 0
	}
	fn(p)
}
