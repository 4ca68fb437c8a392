// Package workload holds the request-stream primitives shared by the
// simulated serving workloads: the YCSB/Gray zipfian key chooser and the
// open-loop Poisson arrival process. internal/ycsb (key choice) and
// internal/kvs (arrival scheduling) both delegated here when the two
// copies were unified, and internal/infer draws its request arrivals and
// prompt-length skew from the same primitives — so every workload's
// randomness flows through internal/rng streams and one implementation.
//
// Determinism contract: for a fixed seed, each generator consumes its
// *rand.Rand in a fixed call order and produces an identical sequence on
// every run, architecture and GOMAXPROCS notwithstanding. The regression
// test in this package pins the exact sequences the pre-extraction
// implementations produced; changing them is a recalibration event.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Zipf is the YCSB/Gray zipfian generator over [0, n): heavily skewed
// toward small ranks with the classic theta=0.99 YCSB default. It is
// stateless between draws — callers own the *rand.Rand — so one Zipf can
// serve several independent streams.
type Zipf struct {
	n                 uint64
	alpha, zetan, eta float64
	// rank1 = 1 + 0.5^theta is the uz bound under which Next returns
	// rank 1. NewZipf computes it once: Next is on every YCSB key and
	// prompt-length draw.
	rank1 float64
}

// NewZipf precomputes the generator constants for n items at the given
// theta (YCSB uses 0.99). n must be positive and theta in (0, 1): theta=1
// makes alpha infinite and theta=0 is just uniform — both outside the
// Gray/YCSB derivation the constants come from.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: Zipf needs at least one item")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: Zipf theta must be in (0, 1), got %v", theta))
	}
	z := &Zipf{n: n}
	zeta2theta := zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.zetan = zetaStatic(n, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2theta/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	// Exact O(n) sum, one math.Pow per rank with no cap: callers build a
	// Zipf once and reuse it rather than constructing one per draw.
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next rank in [0, n), consuming exactly one Float64 from
// rng. The Gray approximation can land exactly on n for draws at the very
// top of the unit interval (and for n=1 every draw takes the uz < 1
// branch); the clamp keeps the contract strict so callers need no modulo.
func (z *Zipf) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// N reports the item count the constants were computed for.
func (z *Zipf) N() uint64 { return z.n }

// Poisson is an open-loop Poisson arrival process: exponentially
// distributed gaps at RatePerSec aggregate arrivals per simulated second,
// floored at one nanosecond so a pathological draw cannot schedule two
// arrivals at the same instant, and saturated at Forever so a vanishing
// rate cannot overflow sim.Time into a gap in the past.
type Poisson struct {
	// RatePerSec is the aggregate arrival rate; it must be positive.
	RatePerSec float64
}

// Gap draws the next inter-arrival gap, consuming exactly one ExpFloat64
// from rng.
func (p Poisson) Gap(rng *rand.Rand) sim.Time {
	if p.RatePerSec <= 0 {
		panic(fmt.Sprintf("workload: Poisson rate must be positive, got %v", p.RatePerSec))
	}
	return gapAtRate(rng, p.RatePerSec)
}

// Latest skews toward the most recently inserted of records items with
// exponential decay (YCSB's "latest" chooser), consuming exactly one
// ExpFloat64 from rng. records must be positive (with records=0 there is
// no "latest" item; the old code underflowed into a huge bogus key).
func Latest(rng *rand.Rand, records uint64) uint64 {
	if records == 0 {
		panic("workload: Latest needs at least one record")
	}
	back := uint64(rng.ExpFloat64() * float64(records) / 20)
	if back >= records {
		back = records - 1
	}
	return records - 1 - back
}
