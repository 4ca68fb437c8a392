package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestClaimNMatchesClaims checks ClaimN against n consecutive Claims on a
// twin resource with a random claim history: same first start and the
// same free time, busy time and claim count afterwards.
func TestClaimNMatchesClaims(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a, b := NewResource("a"), NewResource("b")
		for i, k := 0, rng.Intn(6); i < k; i++ {
			now, occ := Time(rng.Intn(500)), Time(rng.Intn(50))
			a.Claim(now, occ)
			b.Claim(now, occ)
		}
		now, occ, n := Time(rng.Intn(600)), Time(rng.Intn(40)), 1+rng.Intn(16)
		got := a.ClaimN(now, occ, n)
		want := b.Claim(now, occ)
		for i := 1; i < n; i++ {
			b.Claim(now, occ)
		}
		if got != want || a.FreeAt() != b.FreeAt() || a.Busy() != b.Busy() || a.Claims() != b.Claims() {
			t.Fatalf("trial %d: ClaimN(%v, %v, %d): start %v/%v free %v/%v busy %v/%v claims %d/%d",
				trial, now, occ, n, got, want, a.FreeAt(), b.FreeAt(), a.Busy(), b.Busy(), a.Claims(), b.Claims())
		}
	}
}

// TestPipelineMatchesAcquireComplete checks Pipeline against the
// Acquire/Complete sequence it batches, on twin pools with random
// capacities and pre-filled rings. Pre-fill service times reach past the
// run's completions, so some steps take Pipeline's out-of-order insert.
// Compared: the returned completion (the run's maximum), InFlight, the
// outstanding completions, and the starts of follow-up Acquires.
func TestPipelineMatchesAcquireComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		capacity := 1 + rng.Intn(8)
		a, b := NewCredits("a", capacity), NewCredits("b", capacity)
		var now Time
		for i, k := 0, rng.Intn(3*capacity); i < k; i++ {
			now += Time(rng.Intn(30))
			done := now + Time(rng.Intn(400))
			a.Complete(a.Acquire(now) + done - now)
			b.Complete(b.Acquire(now) + done - now)
		}
		t0 := now + Time(rng.Intn(60)) - 20
		if t0 < 0 {
			t0 = 0
		}
		dt, svc, n := Time(rng.Intn(20)), Time(rng.Intn(200)), 1+rng.Intn(16)

		got := a.Pipeline(t0, dt, svc, n)
		var want Time
		for i := 0; i < n; i++ {
			done := b.Acquire(t0+Time(i)*dt) + svc
			b.Complete(done)
			want = max(want, done)
		}
		if got != want {
			t.Fatalf("trial %d: Pipeline(%v, %v, %v, %d) = %v, Acquire/Complete max %v", trial, t0, dt, svc, n, got, want)
		}
		if a.InFlight() != b.InFlight() {
			t.Fatalf("trial %d: InFlight %d / %d", trial, a.InFlight(), b.InFlight())
		}
		if x, y := a.held(), b.held(); !slices.Equal(x, y) {
			t.Fatalf("trial %d: outstanding %v / %v", trial, x, y)
		}
		tLast := t0 + Time(n-1)*dt
		for i := 0; i < 20; i++ {
			tm := tLast + Time(rng.Intn(300))
			if x, y := a.Acquire(tm), b.Acquire(tm); x != y {
				t.Fatalf("trial %d: follow-up Acquire(%v) = %v / %v", trial, tm, x, y)
			}
			done := tm + Time(rng.Intn(200))
			a.Complete(done)
			b.Complete(done)
		}
	}
}
