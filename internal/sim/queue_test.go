package sim

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The queueing oracles check the event core's two queues against
// closed-form mean waits under seeded Poisson arrivals. Successive waits
// are correlated, so each test estimates the standard error of its mean
// wait by batch means and accepts a deviation of up to four of them
// (about 1 in 16 000 for a normal estimate). Each test also requires
// that tolerance to be a small fraction of the theoretical wait, so a
// sample too short to tell would fail rather than pass vacuously.

const (
	oracleBatches = 50
	// oracleWarmup arrivals are dropped before measuring, so the queue
	// starts near its steady state rather than empty.
	oracleWarmup = 20_000
)

// meanWait feeds n Poisson arrivals at rate lambda (per picosecond) to
// admit, which returns each one's service start, and returns the mean
// wait and its batch-means standard error.
func meanWait(seed int64, n int, lambda float64, admit func(rng *rand.Rand, now Time) Time) (mean, se float64) {
	rng := rand.New(rand.NewSource(seed))
	var now Time
	per := n / oracleBatches
	var batch [oracleBatches]float64
	for i := 0; i < oracleWarmup+per*oracleBatches; i++ {
		now += Time(math.Round(rng.ExpFloat64() / lambda))
		w := float64(admit(rng, now) - now)
		if i >= oracleWarmup {
			batch[(i-oracleWarmup)/per] += w / float64(per)
		}
	}
	for _, b := range batch {
		mean += b / oracleBatches
	}
	var ss float64
	for _, b := range batch {
		ss += (b - mean) * (b - mean)
	}
	return mean, math.Sqrt(ss / (oracleBatches - 1) / oracleBatches)
}

// checkWait compares a measured mean wait with theory.
func checkWait(t *testing.T, name string, mean, se, want, maxTol float64) {
	t.Helper()
	tol := 4 * se
	t.Logf("%s: mean wait %.4g, theory %.4g (%+.2f%%), tolerance %.2f%%",
		name, mean, want, 100*(mean/want-1), 100*tol/want)
	if tol > maxTol*want {
		t.Errorf("%s: tolerance %.2f%% of the mean wait exceeds %.0f%%: the sample cannot tell", name, 100*tol/want, 100*maxTol)
	}
	if math.Abs(mean-want) > tol {
		t.Errorf("%s: mean wait %.4g, want %.4g ± %.2g", name, mean, want, tol)
	}
}

// TestResourceMatchesPollaczekKhinchine: a Resource with fixed service S
// under Poisson arrivals is an M/D/1 queue, whose mean wait is
// ρS / 2(1 − ρ) (Pollaczek–Khinchine).
func TestResourceMatchesPollaczekKhinchine(t *testing.T) {
	const svc = Microsecond
	for _, c := range []struct {
		rho    float64
		n      int
		maxTol float64
	}{
		{0.3, 400_000, 0.03},
		{0.6, 400_000, 0.03},
		{0.9, 2_000_000, 0.06},
	} {
		r := NewResource("md1")
		lambda := c.rho / float64(svc)
		mean, se := meanWait(1, c.n, lambda, func(_ *rand.Rand, now Time) Time { return r.Claim(now, svc) })
		want := c.rho * float64(svc) / (2 * (1 - c.rho))
		checkWait(t, "M/D/1 at ρ "+ftoa(c.rho), mean, se, want, c.maxTol)
	}
}

// TestCreditsMatchErlangC: a Credits pool of c credits, each held by an
// Acquire until its Complete an exponential service time later, under
// Poisson arrivals is an M/M/c queue, whose mean wait is
// C(c, a) / (cμ − λ) with a = λ/μ (Erlang C).
func TestCreditsMatchErlangC(t *testing.T) {
	const servers = 4
	const svc = Microsecond // mean service time, 1/μ
	for _, c := range []struct {
		rho    float64
		n      int
		maxTol float64
	}{
		{0.3, 2_000_000, 0.05},
		{0.6, 1_200_000, 0.05},
		{0.9, 5_000_000, 0.06},
	} {
		p := NewCredits("mmc", servers)
		mu := 1 / float64(svc)
		lambda := c.rho * servers * mu
		mean, se := meanWait(2, c.n, lambda, func(rng *rand.Rand, now Time) Time {
			start := p.Acquire(now)
			p.Complete(start + Time(math.Round(rng.ExpFloat64()*float64(svc))))
			return start
		})
		want := erlangC(servers, lambda/mu) / (servers*mu - lambda)
		checkWait(t, "M/M/4 at ρ "+ftoa(c.rho), mean, se, want, c.maxTol)
	}
}

// erlangC is the probability that an arrival waits in an M/M/c queue
// offered a erlangs.
func erlangC(c int, a float64) float64 {
	term, sum := 1.0, 0.0 // term = a^k / k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	top := term * float64(c) / (float64(c) - a)
	return top / (sum + top)
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
