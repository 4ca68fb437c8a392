package sim

import "fmt"

// Resource models a serialized, work-conserving server: a link, a DRAM
// channel, an accelerator engine, a CPU store port. A caller claims the
// resource for an occupancy (service time); claims are granted in arrival
// order and the resource serves exactly one claim at a time.
//
// Resource is the building block that makes bandwidth emerge from the model:
// when requests arrive faster than the resource can serve them, grant times
// queue up and measured throughput converges to 1/occupancy.
type Resource struct {
	name     string
	nextFree Time
	// busy accumulates total occupied time, for utilization reporting.
	busy Time
	// claims counts grants, for diagnostics.
	claims uint64
}

// NewResource returns a named serialized resource that is free at time zero.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Claim reserves the resource for occupancy starting no earlier than now.
// It returns the time at which service begins (>= now) — the completion time
// is start+occupancy. Claim never blocks; the caller incorporates the wait
// into its own event schedule.
func (r *Resource) Claim(now, occupancy Time) (start Time) {
	if occupancy < 0 {
		panic(fmt.Sprintf("sim: negative occupancy %v on %s", occupancy, r.name))
	}
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + occupancy
	r.busy += occupancy
	r.claims++
	return start
}

// ClaimN reserves n back-to-back occupancy slots starting no earlier than
// now and returns the start of the first slot. It is exactly equivalent to n
// consecutive Claim(now, occupancy) calls — after the first grant the
// resource's free time is at or past now, so the remaining grants pack
// back-to-back — but costs one call; block transfers that issue a run of
// identical line requests use it to batch the issue-serialization claim.
func (r *Resource) ClaimN(now, occupancy Time, n int) (start Time) {
	if occupancy < 0 {
		panic(fmt.Sprintf("sim: negative occupancy %v on %s", occupancy, r.name))
	}
	if n <= 0 {
		panic(fmt.Sprintf("sim: ClaimN of %d slots on %s", n, r.name))
	}
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	total := occupancy * Time(n)
	r.nextFree = start + total
	r.busy += total
	r.claims += uint64(n)
	return start
}

// FreeAt reports when the resource becomes idle given no further claims.
func (r *Resource) FreeAt() Time { return r.nextFree }

// Busy reports the total time the resource has been occupied.
func (r *Resource) Busy() Time { return r.busy }

// Claims reports how many grants the resource has issued.
func (r *Resource) Claims() uint64 { return r.claims }

// Reset returns the resource to the free state with zeroed accounting.
func (r *Resource) Reset() { r.nextFree, r.busy, r.claims = 0, 0, 0 }

// Credits models a bounded pool of outstanding-request credits (MSHRs, link
// credits, DMA ring slots, LSQ entries). A caller acquires a credit at a
// time and releases it when the tracked operation completes; when the pool is
// empty the acquire time is pushed to the earliest release.
//
// The pool keeps the completion times of in-flight operations in a fixed
// ring, sorted from head. Acquire retires the prefix at or before now and,
// when every credit is still held, consumes the earliest completion: the
// new operation starts the instant the old one finishes. Issue is monotone
// in time for every user in the model, so Complete almost always writes
// the tail; the rare out-of-order completion shifts later entries up one
// slot to keep the ring sorted, preserving exact extract-earliest
// semantics for any call pattern. Every caller pairs Acquire with
// Complete, so the ring never holds more than capacity entries; a Complete
// without a matching Acquire (the API allows it) grows the ring.
//
// Pipeline batches a run of such pairs. A run that finds the ring exactly
// full and every credit busy past its request time — the steady state of
// a block stream issued faster than it is served — takes a fast path in
// which each operation overwrites the head with its own completion.
type Credits struct {
	name     string
	capacity int
	// ring[head], ring[head+1], … (mod len(ring)) are the n outstanding
	// completion times in nondecreasing order.
	ring    []Time
	head, n int
}

// NewCredits returns a pool with the given capacity (> 0).
func NewCredits(name string, capacity int) *Credits {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: credits %q capacity %d", name, capacity))
	}
	return &Credits{name: name, capacity: capacity, ring: make([]Time, capacity)}
}

// Name returns the diagnostic name given at construction.
func (c *Credits) Name() string { return c.name }

// InFlight reports the number of credits currently held (not yet completed
// relative to the most recent Acquire's start time). Retirement is lazy —
// completions leave the ring only when a later Acquire scans past them —
// so this can overcount the operations genuinely outstanding at a given
// instant.
func (c *Credits) InFlight() int { return c.n }

// Acquire obtains a credit for an operation requested at now. If the pool
// is exhausted, the start is delayed to the earliest outstanding
// completion, and the returned start reflects that. The caller must
// compute its own completion relative to the returned start and then call
// Complete with the final completion time.
func (c *Credits) Acquire(now Time) (start Time) {
	start, c.head, c.n = c.grant(c.head, c.n, now)
	return start
}

// grant runs Acquire on the ring state (h, n) and returns the start and
// the new state; Pipeline keeps that state in locals across its steps.
func (c *Credits) grant(h, n int, now Time) (start Time, _, _ int) {
	q := c.ring
	for n > 0 && q[h] <= now {
		if h++; h == len(q) {
			h = 0
		}
		n--
	}
	if n < c.capacity {
		return now, h, n
	}
	// Pool exhausted. Every remaining completion is strictly after now (the
	// scan above retired the rest), so the earliest one is the exact moment
	// a credit frees: service is delayed to it, and consuming it hands that
	// credit to this operation.
	start = q[h]
	if h++; h == len(q) {
		h = 0
	}
	return start, h, n - 1
}

// Complete records that the operation admitted by a prior Acquire finishes at
// t, holding its credit until then.
func (c *Credits) Complete(t Time) {
	if c.n == len(c.ring) {
		// More completions than grants: unwrap into a ring twice the size.
		g := make([]Time, 2*len(c.ring))
		copy(g[copy(g, c.ring[c.head:]):], c.ring[:c.head])
		c.ring, c.head = g, 0
	}
	c.n = insert(c.ring, c.head, c.n, t)
}

// insert writes t into the sorted ring q of n entries from head (n <
// len(q)) and returns the new count. The slot after the tail takes t
// directly when t is not earlier than the tail, the in-order case every
// model caller produces; otherwise later entries move up one slot.
func insert(q []Time, head, n int, t Time) int {
	i := head + n
	if i >= len(q) {
		i -= len(q)
	}
	for k := n; k > 0; k-- {
		j := i - 1
		if j < 0 {
			j = len(q) - 1
		}
		if q[j] <= t {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = t
	return n + 1
}

// Pipeline admits n operations whose request times step from t0 by dt
// (dt >= 0), each holding a credit for service time svc: operation i starts
// at Acquire(t0+i*dt) and completes svc later. It returns the final
// completion time and runs the ring recurrence in one call with the ring
// state in locals — the primitive block transfers use to batch a run of
// identical line requests. It is equivalent to n sequential
// Acquire/Complete pairs in every grant, every completion and InFlight.
// A run that finds the ring full and its head after t0 takes saturated's
// fast path.
func (c *Credits) Pipeline(t0, dt, svc Time, n int) (lastDone Time) {
	if dt < 0 || n <= 0 {
		panic(fmt.Sprintf("sim: credits %q pipeline dt %v, n %d", c.name, dt, n))
	}
	if c.n == c.capacity && c.n == len(c.ring) && c.ring[c.head] > t0 {
		return c.saturated(t0, dt, svc, n)
	}
	return c.pipeline(t0, dt, svc, n)
}

// pipeline is Pipeline's general loop: one grant and one insert per
// operation.
func (c *Credits) pipeline(t, dt, svc Time, n int) (lastDone Time) {
	h, m := c.head, c.n
	for ; n > 0; n-- {
		var start Time
		start, h, m = c.grant(h, m, t)
		// A credit is free, so the ring has a slot for the completion; it
		// lands at the tail unless outstanding completions from callers
		// with a larger svc finish later.
		lastDone = start + svc
		m = insert(c.ring, h, m, lastDone)
		t += dt
	}
	c.head, c.n = h, m
	return lastDone
}

// saturated is Pipeline on a pool whose ring is exactly full at capacity
// (n == capacity == len(ring)). It runs the leading operations that
// qualify in one load, one add and one store each, and hands the rest
// to pipeline.
//
// An operation qualifies when the head completion is after its request
// time and head+svc is at or after the tail. Then grant retires nothing
// (the head is the earliest completion) and hands out the head, so the
// operation starts at it; the freed slot is the one after the tail,
// which in a full ring is the head's own slot, and insert writes the
// completion there because it does not precede the tail. The ring stays
// full, and the grant, the ring and the count are those of grant plus
// insert. Past the first operation the tail check always holds — the
// ring is sorted, so each head+svc is at or after the one before — and a
// run leaves the fast path only when its request times catch up with the
// head. Pipeline tries the fast path only at its first operation, so the
// general loop carries no per-operation check; a block stream re-enters
// the fast path at its next run.
func (c *Credits) saturated(t, dt, svc Time, n int) (lastDone Time) {
	q, h := c.ring, c.head
	tail := h - 1
	if tail < 0 {
		tail = len(q) - 1
	}
	lastDone = q[tail]
	for ; n > 0; n-- {
		start := q[h]
		if start <= t || start+svc < lastDone {
			break
		}
		lastDone = start + svc
		q[h] = lastDone
		if h++; h == len(q) {
			h = 0
		}
		t += dt
	}
	c.head = h
	if n > 0 {
		return c.pipeline(t, dt, svc, n)
	}
	return lastDone
}

// Reset empties the pool accounting.
func (c *Credits) Reset() { c.head, c.n = 0, 0 }
