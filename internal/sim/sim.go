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

// key is one pending event's place in the heap: its time and ord =
// seq<<slotBits | slot, where seq is the event's schedule tick and slot
// indexes the engine's callback slab. seq is unique and strictly
// increasing, so comparing ord compares seq: keys order by (when, seq),
// which makes events scheduled earlier at the same timestamp run first
// (FIFO within a timestamp) and keeps the simulation deterministic. A
// key holds no pointer, so the heap moves 16 bytes per step and the
// garbage collector never scans it or takes a write barrier on a move.
type key struct {
	when Time
	ord  uint64
}

// The packing of ord: the low slotBits bits name the slot, the rest hold
// seq. AtCall panics rather than wrap when either outgrows its field —
// 16 M pending events, or 2^40 (~1.1 T) events scheduled on one engine.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// before reports whether k dispatches before o.
func (k key) before(o key) bool {
	return k.when < o.when || (k.when == o.when && k.ord < o.ord)
}

// slot is one pending event's callback and its argument. Every event
// carries its callback's state as an explicit argument, so scheduling
// boxes nothing (func values and pointers are interface-payload-sized).
type slot struct {
	call func(arg any)
	arg  any
}

// keyHeap is a concrete 4-ary min-heap of keys stored flat in one slice.
// Compared with container/heap this removes the per-push interface
// allocation and the Less/Swap indirect calls; compared with a binary
// heap it halves tree depth, trading slightly more sibling comparisons
// (cheap, same cache line) for fewer levels. Sifts move a hole and write
// the moving key once, at its final place.
//
// Because (when, seq) is unique per event, the dispatch sequence is the
// total order by (when, seq) no matter how the heap arranges ties
// internally: FIFO within a timestamp is preserved exactly.
type keyHeap []key

func (h *keyHeap) push(k key) {
	a := append(*h, k)
	*h = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
}

func (h *keyHeap) pop() key {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for c++; c < end; c++ {
			if a[c].before(a[m]) {
				m = c
			}
		}
		if !a[m].before(last) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = last
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events keyHeap
	// slots holds each pending event's callback; free lists the slots
	// no pending event uses.
	slots []slot
	free  []uint32
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
	if e.seq == maxSeq {
		panic(fmt.Sprintf("sim: more than %d events scheduled on one engine", uint64(maxSeq)))
	}
	var s uint32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slots) > slotMask {
			panic(fmt.Sprintf("sim: more than %d events pending", slotMask+1))
		}
		s = uint32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[s] = slot{call: fn, arg: arg}
	e.seq++
	e.events.push(key{when: t, ord: e.seq<<slotBits | uint64(s)})
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
		when := e.events[0].when
		if when > deadline {
			break
		}
		// Batch dispatch: advance the clock once, then drain the entire run
		// of events sharing this timestamp without re-checking the deadline
		// (when <= deadline covers every one of them, including events a
		// callback schedules at the current instant). Pops follow (when, seq)
		// order, so dispatch order — and therefore every simulation
		// outcome — is the same as one pop per deadline check.
		e.now = when
		for {
			s := uint32(e.events.pop().ord & slotMask)
			ev := e.slots[s]
			e.slots[s] = slot{} // the engine drops arg at dispatch
			e.free = append(e.free, s)
			e.executed++
			ev.call(ev.arg)
			if len(e.events) == 0 || e.events[0].when != when {
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
