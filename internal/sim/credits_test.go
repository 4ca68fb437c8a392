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
// the same seeded random Acquire/Complete/Pipeline/Reset sequences and
// requires every grant, every Pipeline completion, InFlight and the full
// list of outstanding completions to agree after every call. Service
// times span a wide range, so completions arrive out of order and
// Pipeline steps land before completions already outstanding (its
// mixed-svc insert). Request times mostly advance but sometimes step
// back. A few Completes come without an Acquire, which grows the ring,
// and a few Acquires without a Complete.
func TestCreditsRingMatchesSlice(t *testing.T) {
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
