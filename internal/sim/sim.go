// Package sim provides the discrete-event simulation engine that underpins
// every timed component in cxl2sim: a picosecond-resolution clock, an event
// heap, cooperative processes, serialized resources (links, ports, engines)
// and credit pools for modeling bounded queues.
//
// The engine is deliberately single-threaded: determinism matters more than
// host parallelism for a reproduction study, and transaction-level models are
// cheap enough that a single goroutine simulates billions of picoseconds per
// wall-clock second.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration in picoseconds. Picoseconds give
// integer exactness for sub-nanosecond link serialization (a 64B flit on a
// 64 GB/s link occupies exactly 1000 ps) while still covering ~106 days of
// simulated time in an int64.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a time later than any event the engine will ever reach.
const Forever Time = math.MaxInt64

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, for diagnostics.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 10*Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < 10*Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < 10*Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	}
}

// FromNanos converts a float64 nanosecond quantity to Time, rounding to the
// nearest picosecond.
func FromNanos(ns float64) Time { return Time(math.Round(ns * 1000)) }

// event is a scheduled callback. seq breaks ties so that events scheduled
// earlier at the same timestamp run first (FIFO within a timestamp), which
// keeps the simulation deterministic. Every event carries its callback's
// state as an explicit argument, so scheduling boxes nothing (func values
// and pointers are interface-payload-sized).
type event struct {
	when Time
	seq  uint64
	call func(arg any)
	arg  any
}

// eventHeap is a concrete 4-ary min-heap of events ordered by (when, seq),
// stored flat in one slice — the non-boxing pattern timeHeap uses, widened
// to 4 children per node. Compared with container/heap this removes the
// per-push interface allocation and the Less/Swap indirect calls; compared
// with a binary heap it halves tree depth, trading slightly more sibling
// comparisons (cheap, same cache line) for fewer swap levels.
//
// Because (when, seq) is unique per event — seq strictly increases — the
// dispatch sequence is the total order by (when, seq) no matter how the
// heap arranges ties internally, so replacing the binary boxed heap cannot
// reorder dispatch: FIFO within a timestamp is preserved exactly.
type eventHeap []event

// before reports whether element i dispatches before element j.
func (h eventHeap) before(i, j int) bool {
	return h[i].when < h[j].when || (h[i].when == h[j].when && h[i].seq < h[j].seq)
}

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a.before(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *eventHeap) popEvent() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release callback/arg references; the slot stays for reuse
	a = a[:n]
	*h = a
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for c++; c < end; c++ {
			if a.before(c, min) {
				min = c
			}
		}
		if !a.before(min, i) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// Executed counts events dispatched since creation, for diagnostics.
	executed uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been dispatched.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled but not yet dispatched.
func (e *Engine) Pending() int { return len(e.events) }

// AtCall schedules fn(arg) at absolute time t. It is the zero-allocation
// scheduling primitive: fn should be a package-level function (or any
// preallocated func value) and arg the state it needs — typically the
// pointer a closure would have captured. Neither boxing fn nor a
// pointer-shaped arg allocates.
//
// Scheduling in the past is a programmer error and panics, because
// silently reordering time would corrupt every latency measurement built
// on the engine. The engine drops its reference to arg when the event
// dispatches; it never retains arg afterwards.
func (e *Engine) AtCall(t Time, fn func(arg any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.pushEvent(event{when: t, seq: e.seq, call: fn, arg: arg})
}

// Run dispatches events until none remain. It returns the final simulated
// time.
func (e *Engine) Run() Time {
	return e.RunUntil(Forever)
}

// RunUntil dispatches events with timestamps <= deadline, advancing the clock
// to each event's time. If the event queue drains first, the clock is left at
// the last dispatched event (not advanced to the deadline). It returns the
// final simulated time.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.events) > 0 {
		when := e.events.peek().when
		if when > deadline {
			break
		}
		// Batch dispatch: advance the clock once, then drain the entire run
		// of events sharing this timestamp without re-checking the deadline
		// (when <= deadline covers every one of them, including events a
		// callback schedules at the current instant). Pops follow (when, seq)
		// order exactly as before, so dispatch order — and therefore every
		// simulation outcome — is unchanged.
		e.now = when
		for {
			ev := e.events.popEvent()
			e.executed++
			ev.call(ev.arg)
			if len(e.events) == 0 || e.events.peek().when != when {
				break
			}
		}
	}
	return e.now
}

// Advance moves the clock forward to t, dispatching any events on the way,
// and leaves the clock exactly at t even if the queue drains early. It panics
// if t is in the past.
func (e *Engine) Advance(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: Advance to %v before now %v", t, e.now))
	}
	e.RunUntil(t)
	if e.now < t {
		e.now = t
	}
}
