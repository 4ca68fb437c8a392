package workload

import (
	"fmt"
	"math/rand"
)

// Client cohorts: production request streams are mixtures of populations
// with very different shapes — interactive chat (short prompts, long
// decodes), RAG pipelines (huge prompts, short answers), batch scoring —
// and distinct key skew. A Mix assigns each request to a cohort by weight;
// the per-cohort shape and skew parameters then drive the workload's
// generators (Shapes holds one zipf pair per cohort).

// Cohort describes one client population's traffic shape.
type Cohort struct {
	// Name labels the cohort in reports and traces.
	Name string
	// Weight is the cohort's relative share of requests (any positive
	// scale; weights are normalized across the Mix).
	Weight float64
	// KeyTheta is the zipfian skew of the cohort's key choice, in (0, 1);
	// 0 means "use the workload's default skew".
	KeyTheta float64
	// PromptMin/PromptMax and DecodeMin/DecodeMax bound the cohort's
	// prompt and generation lengths in tokens (serving workloads).
	PromptMin, PromptMax int
	DecodeMin, DecodeMax int
}

func (c Cohort) validate() error {
	if c.Weight <= 0 {
		return fmt.Errorf("workload: cohort %q weight must be positive", c.Name)
	}
	if c.KeyTheta < 0 || c.KeyTheta >= 1 {
		return fmt.Errorf("workload: cohort %q KeyTheta must be in [0, 1)", c.Name)
	}
	if c.PromptMin < 0 || c.PromptMax < c.PromptMin || c.DecodeMin < 0 || c.DecodeMax < c.DecodeMin {
		return fmt.Errorf("workload: cohort %q token bounds are inverted", c.Name)
	}
	return nil
}

// Mix is a weighted cohort mixture. Pick consumes exactly one Float64 per
// draw, so cohort assignment replays deterministically alongside the other
// generators.
type Mix struct {
	cohorts []Cohort
	cum     []float64 // normalized cumulative weights
}

// NewMix validates the cohorts and precomputes the cumulative weights.
// A Mix holds at most 256 cohorts so a cohort index always fits the trace
// format's one-byte field.
func NewMix(cohorts ...Cohort) (*Mix, error) {
	if len(cohorts) == 0 {
		return nil, fmt.Errorf("workload: mix needs at least one cohort")
	}
	if len(cohorts) > 256 {
		return nil, fmt.Errorf("workload: at most 256 cohorts (got %d)", len(cohorts))
	}
	total := 0.0
	for _, c := range cohorts {
		if err := c.validate(); err != nil {
			return nil, err
		}
		total += c.Weight
	}
	m := &Mix{cohorts: append([]Cohort(nil), cohorts...), cum: make([]float64, len(cohorts))}
	acc := 0.0
	for i, c := range cohorts {
		acc += c.Weight / total
		m.cum[i] = acc
	}
	m.cum[len(m.cum)-1] = 1 // close the rounding gap so Pick never falls off
	return m, nil
}

// MustNewMix is NewMix for static configurations.
func MustNewMix(cohorts ...Cohort) *Mix {
	m, err := NewMix(cohorts...)
	if err != nil {
		panic(err)
	}
	return m
}

// Len reports the cohort count.
func (m *Mix) Len() int { return len(m.cohorts) }

// Cohort returns the i-th cohort.
func (m *Mix) Cohort(i int) Cohort { return m.cohorts[i] }

// Pick draws a cohort index proportional to weight, consuming exactly one
// Float64.
func (m *Mix) Pick(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range m.cum {
		if u < c {
			return i
		}
	}
	return len(m.cum) - 1
}

// Shapes draws request shapes: the cohort (picked from a Mix, or always 0
// without one), then zipf-skewed prompt and decode lengths in tokens within
// that cohort's bounds. Every Zipf is built once, so a draw allocates
// nothing and pays no zeta sum.
type Shapes struct {
	mix   *Mix
	zipfs []shapeZipfs
}

type shapeZipfs struct {
	c              Cohort
	prompt, decode *Zipf
}

// NewShapes builds the sampler for mix or, when mix is nil, for the token
// bounds of def alone.
func NewShapes(mix *Mix, def Cohort) *Shapes {
	s := &Shapes{mix: mix}
	cohorts := []Cohort{def}
	if mix != nil {
		cohorts = mix.cohorts
	}
	for _, c := range cohorts {
		s.zipfs = append(s.zipfs, shapeZipfs{c, NewZipf(uint64(c.PromptMax-c.PromptMin+1), 0.99),
			NewZipf(uint64(c.DecodeMax-c.DecodeMin+1), 0.99)})
	}
	return s
}

// Sample draws one shape, consuming one Float64 for the cohort (only with
// a Mix), then one for the prompt and one for the decode length.
func (s *Shapes) Sample(rng *rand.Rand) (cohort, prompt, decode int) {
	if s.mix != nil {
		cohort = s.mix.Pick(rng)
	}
	z := &s.zipfs[cohort]
	return cohort, z.c.PromptMin + int(z.prompt.Next(rng)), z.c.DecodeMin + int(z.decode.Next(rng))
}
