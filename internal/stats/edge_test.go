package stats

import (
	"math"
	"testing"
)

// TestQuantileTable pins the closest-ranks interpolation on known inputs,
// including the p0/p100 endpoints and duplicate-heavy samples.
func TestQuantileTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"p0 is min", []float64{30, 10, 20}, 0, 10},
		{"p100 is max", []float64{30, 10, 20}, 1, 30},
		{"p50 odd n, no interpolation", []float64{1, 2, 3}, 0.5, 2},
		{"p50 even n interpolates", []float64{10, 20, 30, 40}, 0.5, 25},
		{"p25 lands between ranks", []float64{10, 20, 30, 40}, 0.25, 17.5},
		{"p75 lands between ranks", []float64{10, 20, 30, 40}, 0.75, 32.5},
		{"p99 near the top", []float64{0, 100}, 0.99, 99},
		{"p1 near the bottom", []float64{0, 100}, 0.01, 1},
		{"all duplicates", []float64{5, 5, 5, 5}, 0.5, 5},
		{"duplicates at p0", []float64{2, 2, 9}, 0, 2},
		{"duplicates at p100", []float64{2, 9, 9}, 1, 9},
		{"single obs p0", []float64{7}, 0, 7},
		{"single obs p100", []float64{7}, 1, 7},
		{"negative values", []float64{-10, -20}, 0.5, -15},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSample(len(c.xs))
			for _, x := range c.xs {
				s.Add(x)
			}
			if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("Quantile(%v) of %v = %v, want %v", c.q, c.xs, got, c.want)
			}
		})
	}
}

// TestEmptySampleBehavior pins every query against an empty sample: the
// mean degrades to zero, the order statistics panic.
func TestEmptySampleBehavior(t *testing.T) {
	s := NewSample(0)
	if s.N() != 0 || s.Mean() != 0 {
		t.Fatal("empty sample N/Mean should be 0")
	}
	if vs := s.Values(); len(vs) != 0 {
		t.Fatalf("empty Values = %v", vs)
	}
	mustPanic(t, func() { s.Min() })
	mustPanic(t, func() { s.Max() })
	mustPanic(t, func() { s.Median() })
	mustPanic(t, func() { s.P99() })
}

// TestEmptyOrderStatPanicMessages pins the panic values themselves: every
// order statistic on an empty sample must raise the documented
// "stats: ..." message, not a raw index-out-of-range from the backing
// slice (which Min/Max once did).
func TestEmptyOrderStatPanicMessages(t *testing.T) {
	s := NewSample(0)
	cases := []struct {
		name string
		fn   func()
		want string
	}{
		{"Min", func() { s.Min() }, "stats: min of empty sample"},
		{"Max", func() { s.Max() }, "stats: max of empty sample"},
		{"Quantile", func() { s.Quantile(0.5) }, "stats: quantile of empty sample"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				msg, ok := r.(string)
				if !ok || msg != c.want {
					t.Fatalf("panic = %v, want %q", r, c.want)
				}
			}()
			c.fn()
		})
	}
}
