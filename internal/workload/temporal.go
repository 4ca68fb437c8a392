package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// This file holds the temporal arrival models: real serving traffic is not
// a stationary Poisson stream but multi-period (diurnal load curves),
// bursty (thundering herds, retry storms) and cohort-structured. The
// models here layer those effects over the same exponential-gap machinery
// as Poisson, preserving the package's determinism contract: for a fixed
// seed and call order, every source produces an identical gap sequence on
// every run.

// ArrivalSource draws successive inter-arrival gaps for an open-loop
// request stream. now is the current simulated time, so rate-modulated
// sources can evaluate their rate curve; stationary sources ignore it.
// Callers own the *rand.Rand, and sources may keep modulation state, so
// one source serves exactly one stream.
type ArrivalSource interface {
	GapAt(rng *rand.Rand, now sim.Time) sim.Time
}

// GapAt makes Poisson an ArrivalSource: the stationary process ignores
// now and draws exactly the gap Gap would.
func (p Poisson) GapAt(rng *rand.Rand, _ sim.Time) sim.Time { return p.Gap(rng) }

// gapAtRate converts one ExpFloat64 draw into an inter-arrival gap at
// ratePerSec, floored at one nanosecond (so arrivals strictly advance) and
// saturated at Forever (so tiny rates cannot overflow sim.Time into the
// past). Poisson.Gap routes through here, which pins the conversion: for
// rates where no overflow occurs the result is bit-identical to the
// historical expression.
func gapAtRate(rng *rand.Rand, ratePerSec float64) sim.Time {
	g := rng.ExpFloat64() / ratePerSec * float64(sim.Second)
	if math.IsNaN(g) || g >= float64(math.MaxInt64) {
		return sim.Forever
	}
	gap := sim.Time(g)
	if gap < sim.Nanosecond {
		gap = sim.Nanosecond
	}
	return gap
}

// RatePoint anchors a rate curve: the arrival rate is RatePerSec at offset
// At into the period.
type RatePoint struct {
	At         sim.Time
	RatePerSec float64
}

// RateCurve is a piecewise-linear arrival-rate curve. With Period > 0 the
// curve wraps (a diurnal multi-period profile: t is reduced mod Period);
// with Period == 0 the curve holds its last rate forever. Points must be
// sorted by At with non-negative rates; before the first point the first
// rate holds.
type RateCurve struct {
	Points []RatePoint
	Period sim.Time
}

// NewRateCurve validates and builds a curve.
func NewRateCurve(period sim.Time, points ...RatePoint) (RateCurve, error) {
	if len(points) == 0 {
		return RateCurve{}, fmt.Errorf("workload: rate curve needs at least one point")
	}
	for i, p := range points {
		if p.At < 0 || p.RatePerSec < 0 {
			return RateCurve{}, fmt.Errorf("workload: rate point %d is negative (%v, %v/s)", i, p.At, p.RatePerSec)
		}
		if i > 0 && p.At <= points[i-1].At {
			return RateCurve{}, fmt.Errorf("workload: rate points must be strictly increasing in At (point %d)", i)
		}
	}
	if period < 0 || (period > 0 && points[len(points)-1].At >= period) {
		return RateCurve{}, fmt.Errorf("workload: rate points must fall inside the period %v", period)
	}
	return RateCurve{Points: points, Period: period}, nil
}

// MustNewRateCurve is NewRateCurve for static configurations.
func MustNewRateCurve(period sim.Time, points ...RatePoint) RateCurve {
	c, err := NewRateCurve(period, points...)
	if err != nil {
		panic(err)
	}
	return c
}

// FlatRate is the one-point curve holding ratePerSec forever.
func FlatRate(ratePerSec float64) RateCurve {
	return MustNewRateCurve(0, RatePoint{At: 0, RatePerSec: ratePerSec})
}

// RateAt evaluates the curve at t by linear interpolation. Periodic curves
// interpolate across the wrap (last point back to the first).
func (c RateCurve) RateAt(t sim.Time) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return 0
	}
	if c.Period > 0 {
		t %= c.Period
		if t < 0 {
			t += c.Period
		}
	}
	if t <= pts[0].At {
		if c.Period == 0 || len(pts) == 1 {
			return pts[0].RatePerSec
		}
		// Wrap segment: last point → first point across the period seam.
		last := pts[len(pts)-1]
		span := (c.Period - last.At) + pts[0].At
		return lerpRate(last.RatePerSec, pts[0].RatePerSec, t+(c.Period-last.At), span)
	}
	for i := 1; i < len(pts); i++ {
		if t <= pts[i].At {
			return lerpRate(pts[i-1].RatePerSec, pts[i].RatePerSec, t-pts[i-1].At, pts[i].At-pts[i-1].At)
		}
	}
	last := pts[len(pts)-1]
	if c.Period == 0 {
		return last.RatePerSec
	}
	span := (c.Period - last.At) + pts[0].At
	return lerpRate(last.RatePerSec, pts[0].RatePerSec, t-last.At, span)
}

// MaxRate reports the curve's peak rate (the thinning envelope).
func (c RateCurve) MaxRate() float64 {
	m := 0.0
	for _, p := range c.Points {
		if p.RatePerSec > m {
			m = p.RatePerSec
		}
	}
	return m
}

func lerpRate(a, b float64, off, span sim.Time) float64 {
	if off >= span {
		// Segment endpoints must evaluate to their anchor rate exactly:
		// a + (b-a)*1.0 can miss b by an ulp, which would make a periodic
		// curve's rate at the wrap seam (t == Period, reduced to the first
		// point) disagree with RateAt(Points[0].At).
		return b
	}
	return a + (b-a)*float64(off)/float64(span)
}

// BurstSpec layers random burst/cooldown modulation over a rate curve:
// bursts start with exponentially distributed gaps of mean MeanGap, last
// an exponential MeanLen, multiply the instantaneous rate by Factor, and
// are followed by a fixed Cooldown during which the rate is multiplied by
// CoolFactor (the post-herd lull; 1 disables the cooldown effect).
type BurstSpec struct {
	MeanGap    sim.Time
	MeanLen    sim.Time
	Factor     float64
	Cooldown   sim.Time
	CoolFactor float64
}

func (b BurstSpec) validate() error {
	if b.MeanGap <= 0 || b.MeanLen <= 0 {
		return fmt.Errorf("workload: burst MeanGap and MeanLen must be positive")
	}
	if b.Factor < 1 {
		return fmt.Errorf("workload: burst Factor must be >= 1 (got %v)", b.Factor)
	}
	if b.Cooldown < 0 || b.CoolFactor < 0 || b.CoolFactor > 1 {
		return fmt.Errorf("workload: burst Cooldown must be >= 0 and CoolFactor in [0,1]")
	}
	return nil
}

// Temporal is a non-homogeneous Poisson arrival source: a piecewise rate
// curve (diurnal profile) with optional burst/cooldown modulation. Gaps
// are drawn by Lewis-Shedler thinning against the peak modulated rate, so
// the realized arrival intensity tracks the curve exactly (including
// through zero-rate valleys) rather than freezing the rate at the draw
// instant. Each accepted arrival consumes a deterministic, state-dependent
// number of rng draws — fixed for a fixed seed and call order, per the
// package contract.
type Temporal struct {
	curve    RateCurve
	burst    BurstSpec
	hasBurst bool

	// Burst state machine, advanced lazily as queried times pass it.
	primed     bool
	burstStart sim.Time
	burstEnd   sim.Time
	coolEnd    sim.Time
	nextBurst  sim.Time
}

// NewTemporal builds an arrival source following curve.
func NewTemporal(curve RateCurve) *Temporal {
	if len(curve.Points) == 0 {
		panic("workload: Temporal needs a non-empty rate curve")
	}
	return &Temporal{curve: curve}
}

// WithBursts adds burst/cooldown modulation and returns the source.
func (t *Temporal) WithBursts(b BurstSpec) *Temporal {
	if err := b.validate(); err != nil {
		panic(err)
	}
	t.burst = b
	t.hasBurst = true
	return t
}

// maxFactor is the burst state machine's peak multiplier, for the
// thinning envelope.
func (t *Temporal) maxFactor() float64 {
	if !t.hasBurst {
		return 1
	}
	return t.burst.Factor
}

// factorAt advances the burst state machine to now and reports the
// current rate multiplier. The machine is driven by rng draws made in
// strictly increasing simulated-time order, so the modulation replays
// exactly for a fixed seed.
func (t *Temporal) factorAt(rng *rand.Rand, now sim.Time) float64 {
	if !t.hasBurst {
		return 1
	}
	if !t.primed {
		t.nextBurst = expTime(rng, t.burst.MeanGap)
		t.primed = true
	}
	for now >= t.nextBurst {
		t.burstStart = t.nextBurst
		t.burstEnd = satAdd(t.burstStart, expTime(rng, t.burst.MeanLen))
		t.coolEnd = satAdd(t.burstEnd, t.burst.Cooldown)
		t.nextBurst = satAdd(t.coolEnd, expTime(rng, t.burst.MeanGap))
	}
	switch {
	case now >= t.burstStart && now < t.burstEnd:
		return t.burst.Factor
	case now >= t.burstEnd && now < t.coolEnd:
		return t.burst.CoolFactor
	}
	return 1
}

// GapAt draws the gap from now to the next arrival by thinning: candidate
// gaps at the peak modulated rate, accepted with probability
// rate(candidate)/peak. Returns Forever when the curve is all-zero or the
// next arrival lies beyond any horizon the engine will reach.
func (t *Temporal) GapAt(rng *rand.Rand, now sim.Time) sim.Time {
	peak := t.curve.MaxRate() * t.maxFactor()
	if peak <= 0 {
		return sim.Forever
	}
	at := now
	// The candidate count is geometric with mean peak/rate; the cap turns
	// a pathological all-rejection stretch (e.g. a curve that is zero
	// almost everywhere) into "no further arrivals" instead of a spin.
	for i := 0; i < 1<<20; i++ {
		gap := gapAtRate(rng, peak)
		if gap == sim.Forever {
			return sim.Forever
		}
		at = satAdd(at, gap)
		rate := t.curve.RateAt(at) * t.factorAt(rng, at)
		if rate >= peak || rng.Float64()*peak < rate {
			if at <= now {
				return sim.Nanosecond
			}
			return at - now
		}
	}
	return sim.Forever
}

// expTime draws an exponential duration with the given mean, floored at
// one nanosecond.
func expTime(rng *rand.Rand, mean sim.Time) sim.Time {
	g := rng.ExpFloat64() * float64(mean)
	if math.IsNaN(g) || g >= float64(math.MaxInt64) {
		return sim.Forever
	}
	d := sim.Time(g)
	if d < sim.Nanosecond {
		d = sim.Nanosecond
	}
	return d
}

// satAdd adds two non-negative times, saturating at Forever.
func satAdd(a, b sim.Time) sim.Time {
	if a > sim.Forever-b {
		return sim.Forever
	}
	return a + b
}
