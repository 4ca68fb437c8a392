package workload_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/workload"
)

// refShape is the per-draw construction Shapes replaced: pick the cohort
// (with a mix), then build a fresh zipf pair over its bounds and draw the
// prompt and the decode length, reduced modulo the rank count.
func refShape(mix *workload.Mix, def workload.Cohort, r *rand.Rand) (cohort, prompt, decode int) {
	c := def
	if mix != nil {
		cohort = mix.Pick(r)
		c = mix.Cohort(cohort)
	}
	pz := workload.NewZipf(uint64(c.PromptMax-c.PromptMin+1), 0.99)
	dz := workload.NewZipf(uint64(c.DecodeMax-c.DecodeMin+1), 0.99)
	prompt = c.PromptMin + int(pz.Next(r)%pz.N())
	decode = c.DecodeMin + int(dz.Next(r)%dz.N())
	return cohort, prompt, decode
}

type shapeCase struct {
	name string
	mix  *workload.Mix
	def  workload.Cohort
}

// shapeCases are the section's cohort mixture and infer's single-population
// default bounds (prompt 24..64, decode 8..24 tokens).
func shapeCases() []shapeCase {
	return []shapeCase{
		{"cohorts", experiments.WorkloadCohorts(), workload.Cohort{}},
		{"infer-default", nil, workload.Cohort{PromptMin: 24, PromptMax: 64, DecodeMin: 8, DecodeMax: 24}},
	}
}

// TestShapesMatchPerDrawZipf pins Shapes draw for draw to the per-draw
// construction: the same (cohort, prompt, decode) sequence and the same
// number of values consumed from the generator.
func TestShapesMatchPerDrawZipf(t *testing.T) {
	const draws = 10_000
	for _, tc := range shapeCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := rng.New(42), rng.New(42)
			s := workload.NewShapes(tc.mix, tc.def)
			for i := 0; i < draws; i++ {
				wc, wp, wd := refShape(tc.mix, tc.def, ref)
				c, p, d := s.Sample(got)
				if c != wc || p != wp || d != wd {
					t.Fatalf("draw %d: got (%d, %d, %d), want (%d, %d, %d)", i, c, p, d, wc, wp, wd)
				}
			}
			if a, b := ref.Uint64(), got.Uint64(); a != b {
				t.Fatalf("generator state diverged after %d draws: next %d, want %d", draws, b, a)
			}
		})
	}
}

func TestShapesSampleZeroAllocs(t *testing.T) {
	for _, tc := range shapeCases() {
		s := workload.NewShapes(tc.mix, tc.def)
		r := rng.New(1)
		if n := testing.AllocsPerRun(1000, func() { s.Sample(r) }); n != 0 {
			t.Errorf("%s: Sample allocates %v times per draw", tc.name, n)
		}
	}
}
