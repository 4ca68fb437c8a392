package experiments

import (
	"fmt"
	"io"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The workload section characterizes the traffic library itself: the
// temporal arrival models (stationary Poisson, a diurnal rate curve, the
// same curve with burst/cooldown modulation) and the client-cohort mixture
// the serving workloads draw shapes from. Each arrival model's stream is
// also frozen into the versioned trace format and replayed; the replay row
// must reproduce the recorded row exactly (same stats, same content hash),
// which pins the record/replay contract in the rendered report — and the
// report renders byte-identically in serial and parallel suite runs like
// every other section.

// workloadRequests is the per-model request count: 32*reps clamped to
// [512, 8192], or 2048 when reps is 0.
func workloadRequests(reps int) int {
	if reps == 0 {
		return 2048
	}
	return min(max(32*reps, 512), 8192)
}

// WorkloadRow is one row of the section: an arrival model's realized
// stream (Kind "arrival") or a cohort's realized mixture share and shape
// (Kind "cohort").
type WorkloadRow struct {
	Kind     string
	Name     string
	Requests int
	// Arrival-model columns.
	SpanSec   float64 // first arrival to last
	MeanRate  float64 // requests/s over the span
	PeakRate  float64 // peak over 1-second buckets
	TraceHash string  // content hash of the canonical trace encoding
	// Cohort columns.
	SharePct   float64
	MeanPrompt float64
	MeanDecode float64
}

// workloadCurve is the section's diurnal profile: a 4-second "day" with a
// quiet valley, a morning ramp and an evening peak — fast enough to cycle
// several times inside the measured stream.
func workloadCurve() workload.RateCurve {
	return workload.MustNewRateCurve(4*sim.Second,
		workload.RatePoint{At: 0, RatePerSec: 200},
		workload.RatePoint{At: 1 * sim.Second, RatePerSec: 1200},
		workload.RatePoint{At: 2 * sim.Second, RatePerSec: 600},
		workload.RatePoint{At: 3 * sim.Second, RatePerSec: 1600},
	)
}

// workloadBursts is the section's burst overlay: short thundering herds a
// few times per simulated second, each followed by a cooled-off lull.
func workloadBursts() workload.BurstSpec {
	return workload.BurstSpec{
		MeanGap:    800 * sim.Millisecond,
		MeanLen:    60 * sim.Millisecond,
		Factor:     4,
		Cooldown:   100 * sim.Millisecond,
		CoolFactor: 0.25,
	}
}

// WorkloadCohorts is the section's client mixture: interactive chat,
// long-prompt RAG and batch scoring, the three populations serving
// deployments plan for.
func WorkloadCohorts() *workload.Mix {
	return workload.MustNewMix(
		workload.Cohort{Name: "chat", Weight: 6, PromptMin: 16, PromptMax: 96, DecodeMin: 32, DecodeMax: 256},
		workload.Cohort{Name: "rag", Weight: 3, PromptMin: 512, PromptMax: 2048, DecodeMin: 16, DecodeMax: 64},
		workload.Cohort{Name: "batch", Weight: 1, PromptMin: 128, PromptMax: 512, DecodeMin: 8, DecodeMax: 16},
	)
}

// recordArrivals freezes n arrivals from src into a trace.
func recordArrivals(src workload.ArrivalSource, seed int64, n int, label string) *workload.Trace {
	r := rng.New(seed)
	t := &workload.Trace{Workload: label, Seed: seed, Requests: make([]workload.Request, n)}
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		gap := src.GapAt(r, now)
		if now > sim.Forever-gap {
			now = sim.Forever
		} else {
			now += gap
		}
		t.Requests[i].At = now
	}
	return t
}

// arrivalRow reduces a trace's arrival times to a section row.
func arrivalRow(name string, t *workload.Trace) WorkloadRow {
	row := WorkloadRow{Kind: "arrival", Name: name, Requests: len(t.Requests),
		TraceHash: fmt.Sprintf("%016x", t.Hash())}
	if len(t.Requests) == 0 {
		return row
	}
	first := t.Requests[0].At
	last := t.Requests[len(t.Requests)-1].At
	span := last - first
	if span > 0 {
		row.SpanSec = float64(span) / float64(sim.Second)
		row.MeanRate = float64(len(t.Requests)-1) / row.SpanSec
	}
	// Peak rate over fixed 1-second buckets from the first arrival.
	counts := map[int64]int{}
	for _, r := range t.Requests {
		counts[int64((r.At-first)/sim.Second)]++
	}
	for _, c := range counts {
		if float64(c) > row.PeakRate {
			row.PeakRate = float64(c)
		}
	}
	return row
}

// cohortRows draws n shape samples from the mixture and reduces them to
// per-cohort realized shares and mean shapes.
func cohortRows(mix *workload.Mix, seed int64, n int) []WorkloadRow {
	r := rng.Derive(seed, "workload/cohorts")
	type acc struct {
		count          int
		prompt, decode int
	}
	accs := make([]acc, mix.Len())
	shapes := workload.NewShapes(mix, workload.Cohort{})
	for i := 0; i < n; i++ {
		c, prompt, decode := shapes.Sample(r)
		accs[c].count++
		accs[c].prompt += prompt
		accs[c].decode += decode
	}
	rows := make([]WorkloadRow, mix.Len())
	for i := range rows {
		a := accs[i]
		rows[i] = WorkloadRow{Kind: "cohort", Name: mix.Cohort(i).Name, Requests: a.count,
			SharePct: 100 * float64(a.count) / float64(n)}
		if a.count > 0 {
			rows[i].MeanPrompt = float64(a.prompt) / float64(a.count)
			rows[i].MeanDecode = float64(a.decode) / float64(a.count)
		}
	}
	return rows
}

// WorkloadJobs returns one job per stream: the three arrival models
// ("workload/poisson", "workload/diurnal", "workload/diurnal+burst") and
// the cohort reduction ("workload/cohorts"). Each derives its own stream
// seed from the section seed rng.DeriveSeed(root, "workload"). Temporal
// sources carry their position in the curve, so every job builds its
// source inside Run: a section built once stays replayable. The replay
// round-trip rides in the diurnal+burst job because it must re-decode
// that job's recorded trace. reps scales the per-model request count.
func WorkloadJobs(reps int) []runner.Job {
	n := workloadRequests(reps)
	arrivalJob := func(name string, src func() workload.ArrivalSource, withReplay bool) runner.Job {
		return runner.Job{ID: "workload/" + name, Run: func(ctx *runner.Ctx) (any, error) {
			seed := sectionSeed(ctx, "workload")
			t := recordArrivals(src(), rng.DeriveSeed(seed, "workload/"+name), n, name)
			rows := []WorkloadRow{arrivalRow(name, t)}
			if withReplay {
				// Round-trip the burstiest stream through the binary
				// format and reduce the decoded records: the replay row
				// must match its source row column for column, hash
				// included.
				replayed, err := workload.DecodeTrace(t.Encode())
				if err != nil {
					return nil, err
				}
				rows = append(rows, arrivalRow("replay(burst)", replayed))
			}
			return rows, nil
		}}
	}
	return []runner.Job{
		arrivalJob("poisson", func() workload.ArrivalSource {
			return workload.Poisson{RatePerSec: workloadCurve().MaxRate() / 2}
		}, false),
		arrivalJob("diurnal", func() workload.ArrivalSource {
			return workload.NewTemporal(workloadCurve())
		}, false),
		arrivalJob("diurnal+burst", func() workload.ArrivalSource {
			return workload.NewTemporal(workloadCurve()).WithBursts(workloadBursts())
		}, true),
		{ID: "workload/cohorts", Run: func(ctx *runner.Ctx) (any, error) {
			return cohortRows(WorkloadCohorts(), sectionSeed(ctx, "workload"), n), nil
		}},
	}
}

// printWorkload renders the arrival-model and cohort tables.
func printWorkload(w io.Writer, rows []WorkloadRow) {
	var arr, coh [][]string
	for _, r := range rows {
		switch r.Kind {
		case "arrival":
			arr = append(arr, []string{r.Name, fmt.Sprintf("%d", r.Requests),
				fmtCell(r.SpanSec), fmtCell(r.MeanRate), fmtCell(r.PeakRate), r.TraceHash})
		case "cohort":
			coh = append(coh, []string{r.Name, fmtCell(r.SharePct),
				fmtCell(r.MeanPrompt), fmtCell(r.MeanDecode)})
		}
	}
	printTable(w, "Workload traffic library — temporal arrival models (recorded vs replayed)",
		[]string{"model", "requests", "span(s)", "mean(req/s)", "peak(req/s)", "trace-hash"}, arr)
	printTable(w, "Workload traffic library — client cohort mixture",
		[]string{"cohort", "share(%)", "prompt(tok)", "decode(tok)"}, coh)
}
