// Package stats provides the measurement plumbing used by every experiment:
// exact sample sets with mean, median and percentile queries, and small
// helpers for reporting paper-style numbers (medians, p99 tail latency,
// normalized ratios).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers order statistics
// exactly, such as the p50/p99/p99.9 request latencies of Fig. 8.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// NewSample returns an empty sample, optionally pre-sized.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile reports the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. It panics on an empty sample or q outside [0,1].
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	s.ensureSorted()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median reports the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P99 reports the 0.99-quantile — the paper's tail-latency metric (§VII).
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Min reports the smallest observation; like Quantile, it panics with a
// clear message on an empty sample (not a raw index error).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		panic("stats: min of empty sample")
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max reports the largest observation; like Quantile, it panics with a
// clear message on an empty sample (not a raw index error).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		panic("stats: max of empty sample")
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Values returns a copy of the raw observations (unsorted order not
// guaranteed).
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Reset discards all observations, keeping capacity.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
	s.sum = 0
}

// Ratio returns a/b, guarding against a zero denominator.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// PctHigher reports how much higher a is than b, in percent: 100*(a-b)/b.
func PctHigher(a, b float64) float64 { return 100 * (a - b) / b }

// PctLower reports how much lower a is than b, in percent: 100*(b-a)/b.
func PctLower(a, b float64) float64 { return 100 * (b - a) / b }

// Within reports whether got is within tol (a fraction, e.g. 0.25 for ±25%)
// of want. Used by the paper-shape calibration tests.
func Within(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) <= tol
	}
	return math.Abs(got-want) <= math.Abs(want)*tol
}
