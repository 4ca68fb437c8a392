package sim

import (
	"testing"
)

// TestCreditsInFlightAt pins the eager point-in-time queue-depth fix: the
// lazy ring overcounts completed operations until a later Acquire scans
// them out; InFlightAt must not.
func TestCreditsInFlightAt(t *testing.T) {
	c := NewCredits("test", 4)
	c.Acquire(0)
	c.Complete(10)
	c.Acquire(0)
	c.Complete(20)

	// Nothing has retired the ring, so the legacy count still says 2...
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2 (lazy ring)", got)
	}
	// ...but at now=50 both operations have long completed.
	if got := c.InFlightAt(50); got != 0 {
		t.Fatalf("InFlightAt(50) = %d, want 0", got)
	}
	if got := c.InFlightAt(15); got != 1 {
		t.Fatalf("InFlightAt(15) = %d, want 1", got)
	}
	if got := c.InFlightAt(5); got != 2 {
		t.Fatalf("InFlightAt(5) = %d, want 2", got)
	}
	// InFlightAt must not disturb grant order: an Acquire at 15 still sees
	// the op completing at 20 in flight.
	if start := c.Acquire(15); start != 15 {
		t.Fatalf("Acquire(15) start = %v, want 15", start)
	}
	c.Complete(30)
}

// TestCreditsInFlightAtExhausted covers the early-retire path: an
// exhausted Acquire consumes the earliest completion from the ring, but
// that operation is still in flight at instants before its completion
// and must stay observable.
func TestCreditsInFlightAtExhausted(t *testing.T) {
	c := NewCredits("test", 1)
	if start := c.Acquire(0); start != 0 {
		t.Fatalf("first Acquire start = %v, want 0", start)
	}
	c.Complete(100)
	// Pool exhausted: the grant waits for (and consumes) the completion
	// at 100.
	if start := c.Acquire(0); start != 100 {
		t.Fatalf("exhausted Acquire start = %v, want 100", start)
	}
	c.Complete(200)

	// At now=50 both operations are genuinely in flight: the first
	// completes at 100 (consumed from the ring, held in earlyRetired),
	// the second at 200.
	if got := c.InFlightAt(50); got != 2 {
		t.Fatalf("InFlightAt(50) = %d, want 2", got)
	}
	if got := c.InFlightAt(150); got != 1 {
		t.Fatalf("InFlightAt(150) = %d, want 1", got)
	}
	if got := c.InFlightAt(250); got != 0 {
		t.Fatalf("InFlightAt(250) = %d, want 0", got)
	}
}

// TestCreditsPipelineEarlyRetire checks the same observability through
// the batched Pipeline path.
func TestCreditsPipelineEarlyRetire(t *testing.T) {
	c := NewCredits("test", 2)
	// 4 ops requested at t=0, each holding a credit for 100: ops 1 and 2
	// run [0,100], ops 3 and 4 wait for them and run [100,200].
	last := c.Pipeline(0, 0, 100, 4)
	if last != 200 {
		t.Fatalf("Pipeline lastDone = %v, want 200", last)
	}
	if got := c.InFlightAt(50); got != 4 {
		t.Fatalf("InFlightAt(50) = %d, want 4", got)
	}
	if got := c.InFlightAt(150); got != 2 {
		t.Fatalf("InFlightAt(150) = %d, want 2", got)
	}
	if got := c.InFlightAt(350); got != 0 {
		t.Fatalf("InFlightAt(350) = %d, want 0", got)
	}
}

// TestCreditsInFlightAtOverloaded drives an overloaded pool (issue faster
// than service, so grants run ever further ahead of now and the
// early-retired list keeps growing and compacting) and checks InFlightAt
// at each request time against a count over every completion so far.
func TestCreditsInFlightAtOverloaded(t *testing.T) {
	c := NewCredits("test", 4)
	var done []Time
	for i := 0; i < 2000; i++ {
		now := Time(i)
		end := c.Acquire(now) + 100
		c.Complete(end)
		done = append(done, end)
		want := 0
		for _, d := range done {
			if d > now {
				want++
			}
		}
		if got := c.InFlightAt(now); got != want {
			t.Fatalf("op %d: InFlightAt(%v) = %d, want %d", i, now, got, want)
		}
	}
}
