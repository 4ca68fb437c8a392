package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// sliceCredits is the sorted-slice pool the ring replaced, less the
// early-retire ledger that only the switch-port queue depth read: a
// test-local oracle. outstanding[head:] is sorted; retiring advances head,
// the retired prefix is reclaimed once it dominates, and an out-of-order
// completion binary-inserts. inserts and fallbacks count the calls that
// took the out-of-order insert and Pipeline's mixed-svc fallback to it.
type sliceCredits struct {
	capacity           int
	outstanding        []Time
	head               int
	inserts, fallbacks int
}

func (c *sliceCredits) inFlight() int { return len(c.outstanding) - c.head }

func (c *sliceCredits) reset() { c.outstanding, c.head = c.outstanding[:0], 0 }

func (c *sliceCredits) acquire(now Time) (start Time) {
	start = now
	q, h := c.outstanding, c.head
	for h < len(q) && q[h] <= start {
		h++
	}
	if len(q)-h >= c.capacity {
		start = q[h]
		h++
	}
	c.head = h
	if h >= c.capacity && 2*h >= len(q) {
		n := copy(q, q[h:])
		c.outstanding = q[:n]
		c.head = 0
	}
	return start
}

func (c *sliceCredits) complete(t Time) {
	if c.head == len(c.outstanding) {
		c.outstanding, c.head = c.outstanding[:0], 0
	}
	q := c.outstanding
	n := len(q)
	if n == 0 || t >= q[n-1] {
		c.outstanding = append(q, t)
		return
	}
	c.inserts++
	lo, hi := c.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = t
	c.outstanding = q
}

func (c *sliceCredits) pipeline(t0, dt, svc Time, n int) (lastDone Time) {
	q, h := c.outstanding, c.head
	t := t0
	for i := 0; i < n; i++ {
		for h < len(q) && q[h] <= t {
			h++
		}
		start := t
		if len(q)-h >= c.capacity {
			start = q[h]
			h++
		}
		done := start + svc
		if h == len(q) {
			q, h = q[:0], 0
		} else if last := len(q) - 1; done < q[last] {
			c.fallbacks++
			c.outstanding, c.head = q, h
			c.complete(done)
			q, h = c.outstanding, c.head
			t += dt
			lastDone = done
			continue
		}
		q = append(q, done)
		if h >= c.capacity && 2*h >= len(q) {
			m := copy(q, q[h:])
			q, h = q[:m], 0
		}
		t += dt
		lastDone = done
	}
	c.outstanding, c.head = q, h
	return lastDone
}

// held lists the ring's outstanding completions from head, in order.
func (c *Credits) held() []Time {
	out := make([]Time, c.n)
	for i := range out {
		out[i] = c.ring[(c.head+i)%len(c.ring)]
	}
	return out
}

// TestCreditsRingMatchesSlice drives the ring and the slice oracle with
// the same calls: random sequences and saturated Pipeline streams.
func TestCreditsRingMatchesSlice(t *testing.T) {
	t.Run("random", randomCalls)
	t.Run("saturated", saturatedStreams)
}

// randomCalls drives them with seeded random Acquire/Complete/Pipeline/
// Reset sequences and requires every grant, every Pipeline completion,
// InFlight and the full list of outstanding completions to agree after
// every call. Service times span a wide range, so completions arrive out
// of order and Pipeline steps land before completions already
// outstanding (its mixed-svc insert). Request times mostly advance but
// sometimes step back. A few Completes come without an Acquire, which
// grows the ring, and a few Acquires without a Complete.
func randomCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var grew, inserts, fallbacks int
	for trial := 0; trial < 2000; trial++ {
		capacity := 1 + rng.Intn(8)
		c := NewCredits("ring", capacity)
		o := &sliceCredits{capacity: capacity}
		var now Time
		for op := 0; op < 200; op++ {
			now += Time(rng.Intn(40)) - 8
			if now < 0 {
				now = 0
			}
			var got, want Time
			switch k := rng.Intn(100); {
			case k < 55: // paired Acquire/Complete
				got, want = c.Acquire(now), o.acquire(now)
				done := got + Time(rng.Intn(300))
				if got == want {
					c.Complete(done)
					o.complete(done)
				}
			case k < 85:
				t0, dt := now+Time(rng.Intn(20)), Time(rng.Intn(15))
				svc, n := Time(rng.Intn(250)), 1+rng.Intn(3*capacity)
				got, want = c.Pipeline(t0, dt, svc, n), o.pipeline(t0, dt, svc, n)
			case k < 91: // Acquire alone
				got, want = c.Acquire(now), o.acquire(now)
			case k < 97: // Complete alone
				done := now + Time(rng.Intn(300))
				if c.n == len(c.ring) {
					grew++
				}
				c.Complete(done)
				o.complete(done)
			default:
				c.Reset()
				o.reset()
			}
			if got != want {
				t.Fatalf("trial %d op %d: ring %v, slice %v", trial, op, got, want)
			}
			if c.InFlight() != o.inFlight() || !slices.Equal(c.held(), o.outstanding[o.head:]) {
				t.Fatalf("trial %d op %d: ring holds %v, slice %v", trial, op, c.held(), o.outstanding[o.head:])
			}
		}
		inserts += o.inserts
		fallbacks += o.fallbacks
	}
	if grew == 0 || inserts == 0 || fallbacks == 0 {
		t.Fatalf("sequences missed a path: %d ring growths, %d out-of-order inserts, %d Pipeline fallbacks",
			grew, inserts, fallbacks)
	}
	t.Logf("%d ring growths, %d out-of-order inserts, %d Pipeline fallbacks", grew, inserts, fallbacks)
}

// fastSteps reports how many leading steps of Pipeline(t0, dt, svc, n)
// on c qualify for saturated's fast path, and whether the pool is
// saturated with the head after t0 but the first step's completion
// precedes the tail: a coverage probe that changes nothing.
func fastSteps(c *Credits, t0, dt, svc Time, n int) (k int, tailReject bool) {
	if c.n != c.capacity || c.n != len(c.ring) || c.ring[c.head] <= t0 {
		return 0, false
	}
	q := slices.Clone(c.ring)
	h, last := c.head, q[(c.head+len(q)-1)%len(q)]
	for t := t0; k < n && q[h] > t && q[h]+svc >= last; k++ {
		last = q[h] + svc
		q[h] = last
		h = (h + 1) % len(q)
		t += dt
	}
	return k, k == 0
}

// saturatedStreams runs long Pipeline streams on saturated pools against
// the slice oracle, comparing every grant, every
// completion, InFlight and the outstanding list after every call. The
// streams enter Pipeline's fast path, leave it mid-run when requests
// catch up with the head (retiring it), are refused it when a shorter
// svc puts a completion before the tail, and re-enter it; dt = 0 runs,
// a ring grown past capacity by an unpaired Complete (which never takes
// the fast path again) and a Reset mid-stream ride along.
func saturatedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var calls, entered, partial, rejected, reentered, grown, dt0 int
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + rng.Intn(8)
		c := NewCredits("ring", capacity)
		o := &sliceCredits{capacity: capacity}
		now := Time(0)
		left := false // the last call on a full ring left or was refused the fast path
		for op := 0; op < 300; op++ {
			var got, want Time
			switch k := rng.Intn(100); {
			case k < 85:
				dt := Time(rng.Intn(4))
				switch rng.Intn(6) {
				case 0:
					dt = 0
				case 1: // requests catch up with the head mid-run
					dt = Time(30 + rng.Intn(60))
				}
				svc := []Time{200, 200, 200, 120, 400}[rng.Intn(5)]
				n := 1 + rng.Intn(4*capacity)
				fast, reject := fastSteps(c, now, dt, svc, n)
				calls++
				if dt == 0 {
					dt0++
				}
				switch {
				case fast > 0:
					entered++
					if left {
						reentered++
					}
					left = fast < n
					if left {
						partial++
					}
				case reject:
					rejected++
					left = true
				}
				got, want = c.Pipeline(now, dt, svc, n), o.pipeline(now, dt, svc, n)
				// Mostly fall behind the pool; sometimes catch up past
				// its head so the next run retires completions.
				now += Time(rng.Intn(8))
				if rng.Intn(10) == 0 {
					now += Time(rng.Intn(300))
				}
			case k < 92:
				got, want = c.Acquire(now), o.acquire(now)
				if got == want {
					c.Complete(got + 200)
					o.complete(got + 200)
				}
			case k < 94: // unpaired Complete: the ring grows past capacity
				if c.n == len(c.ring) {
					grown++
				}
				c.Complete(now + 250)
				o.complete(now + 250)
			default:
				c.Reset()
				o.reset()
			}
			if got != want {
				t.Fatalf("trial %d op %d: ring %v, slice %v", trial, op, got, want)
			}
			if c.InFlight() != o.inFlight() || !slices.Equal(c.held(), o.outstanding[o.head:]) {
				t.Fatalf("trial %d op %d: ring holds %v, slice %v", trial, op, c.held(), o.outstanding[o.head:])
			}
		}
	}
	if entered == 0 || partial == 0 || rejected == 0 || reentered == 0 || grown == 0 || dt0 == 0 {
		t.Fatalf("streams missed a path: %d calls, %d fast, %d left mid-run, %d refused at the tail, %d re-entered, %d ring growths, %d with dt 0",
			calls, entered, partial, rejected, reentered, grown, dt0)
	}
	t.Logf("%d calls: %d fast, %d left mid-run, %d refused at the tail, %d re-entered, %d ring growths, %d with dt 0",
		calls, entered, partial, rejected, reentered, grown, dt0)
}
