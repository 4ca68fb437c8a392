package kvs

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// Load-generator determinism tests: the temporal sources must keep the
// byte-identical-across-runs contract the suite depends on.

const loadHorizon = 200 * sim.Millisecond

// serveStats reduces a driven fixture to the values that fingerprint the
// exact (op, arrival-time) stream the server saw.
type serveStats struct {
	served uint64
	faults uint64
	p99    float64
	now    sim.Time
}

// driveLoad runs a fresh small fixture under the given load-gen builder.
func driveLoad(t *testing.T, build func(f *fix, gen *ycsb.Generator) *LoadGen) serveStats {
	t.Helper()
	f := newFix(t, 40, smallCfg(), nil)
	gen := ycsb.MustNewGenerator(ycsb.A, ycsb.Zipfian, 1024, 5)
	l := build(f, gen)
	l.Start()
	f.eng.RunUntil(loadHorizon)
	if !f.srv.VerifyOK() {
		t.Fatal("data corrupted")
	}
	return serveStats{served: f.srv.Served(), faults: f.srv.Faults(), p99: f.srv.P99(), now: f.eng.Now()}
}

func TestLoadGenTemporalDeterministic(t *testing.T) {
	src := func() workload.ArrivalSource {
		return workload.NewTemporal(workload.MustNewRateCurve(50*sim.Millisecond,
			workload.RatePoint{At: 0, RatePerSec: 5_000},
			workload.RatePoint{At: 25 * sim.Millisecond, RatePerSec: 40_000},
		)).WithBursts(workload.BurstSpec{
			MeanGap: 20 * sim.Millisecond, MeanLen: 3 * sim.Millisecond, Factor: 3,
		})
	}
	run := func() serveStats {
		return driveLoad(t, func(f *fix, gen *ycsb.Generator) *LoadGen {
			return NewLoadGen(f.eng, []*Server{f.srv}, gen, src(), 11)
		})
	}
	a, b := run(), run()
	if a.served == 0 {
		t.Fatal("temporal run served nothing")
	}
	if a != b {
		t.Fatalf("temporal load-gen not deterministic:\n first  %+v\n second %+v", a, b)
	}
}

func TestLoadGenLegacyPoissonUnchanged(t *testing.T) {
	// The ArrivalSource refactor must leave the legacy constructor's draw
	// stream untouched: Poisson.GapAt is Gap, and the time-base offset is
	// zero when Start happens at engine time zero. Drawing both ways from
	// the same seed pins it.
	p := workload.Poisson{RatePerSec: 60_000}
	r1, r2 := rng.New(3), rng.New(3)
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		g1 := p.Gap(r1)
		g2 := p.GapAt(r2, now)
		if g1 != g2 {
			t.Fatalf("draw %d: Gap %v != GapAt %v", i, g1, g2)
		}
		now += g1
	}
}
