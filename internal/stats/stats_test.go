package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample(8)
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Median(); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v", got)
	}
	if got := s.Max(); got != 5 {
		t.Fatalf("Max = %v", got)
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	s := NewSample(0)
	if s.Mean() != 0 {
		t.Fatal("empty sample mean should be 0")
	}
	s.Add(7)
	if s.Median() != 7 || s.Quantile(0) != 7 || s.Quantile(1) != 7 {
		t.Fatal("single-element quantiles should all be the element")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample(4)
	for _, x := range []float64{10, 20, 30, 40} {
		s.Add(x)
	}
	if got := s.Quantile(0.5); got != 25 {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
	if got := s.Quantile(0.25); got != 17.5 {
		t.Fatalf("Quantile(0.25) = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	s := NewSample(0)
	mustPanic(t, func() { s.Quantile(0.5) })
	s.Add(1)
	mustPanic(t, func() { s.Quantile(-0.1) })
	mustPanic(t, func() { s.Quantile(1.1) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestSampleAddAfterQuery(t *testing.T) {
	s := NewSample(0)
	s.Add(1)
	s.Add(3)
	_ = s.Median() // forces sort
	s.Add(2)
	if got := s.Median(); got != 2 {
		t.Fatalf("Median after re-add = %v", got)
	}
}

func TestSampleReset(t *testing.T) {
	s := NewSample(0)
	s.Add(5)
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestP99(t *testing.T) {
	s := NewSample(100)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	got := s.P99()
	if got < 99 || got > 100 {
		t.Fatalf("P99 = %v", got)
	}
}

func TestQuantileMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		s := NewSample(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			s.Add(xs[i])
		}
		sort.Float64s(xs)
		// Quantile(0) == min, Quantile(1) == max, and monotonicity.
		if s.Quantile(0) != xs[0] || s.Quantile(1) != xs[n-1] {
			return false
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioHelpers(t *testing.T) {
	if got := Ratio(10, 4); got != 2.5 {
		t.Fatalf("Ratio = %v", got)
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Fatal("Ratio by zero should be +Inf")
	}
	if got := PctHigher(138, 100); math.Abs(got-38) > 1e-9 {
		t.Fatalf("PctHigher = %v", got)
	}
	if got := PctLower(17, 100); math.Abs(got-83) > 1e-9 {
		t.Fatalf("PctLower = %v", got)
	}
}

func TestWithin(t *testing.T) {
	if !Within(110, 100, 0.10) {
		t.Fatal("110 should be within 10% of 100")
	}
	if Within(111, 100, 0.10) {
		t.Fatal("111 should not be within 10% of 100")
	}
	if !Within(0.05, 0, 0.1) {
		t.Fatal("near-zero should be within absolute tol of 0")
	}
	if !Within(-95, -100, 0.10) {
		t.Fatal("negative values should compare by magnitude")
	}
}
