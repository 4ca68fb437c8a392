package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

func echoJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("group%d/job%d", i%3, i)
		jobs[i] = Job{ID: id, Run: func(ctx *Ctx) (any, error) {
			ctx.AddEvents(uint64(10 + len(id)))
			return fmt.Sprintf("%s:%d", id, ctx.Seed), nil
		}}
	}
	return jobs
}

// TestOrderedAggregation: results come back in submission order with the
// right values, for every worker count — including workers > jobs.
func TestOrderedAggregation(t *testing.T) {
	jobs := echoJobs(17)
	for _, workers := range []int{1, 2, 4, 32} {
		results := Run(jobs, Options{Workers: workers, RootSeed: 7})
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(jobs))
		}
		for i, r := range results {
			if r.Index != i || r.ID != jobs[i].ID {
				t.Fatalf("workers=%d: result %d is %q@%d, want %q@%d",
					workers, i, r.ID, r.Index, jobs[i].ID, i)
			}
			want := fmt.Sprintf("%s:%d", jobs[i].ID, rng.DeriveSeed(7, jobs[i].ID))
			if r.Value != want {
				t.Fatalf("workers=%d: value[%d] = %v, want %v", workers, i, r.Value, want)
			}
		}
	}
}

// TestSeedsStableAcrossWorkerCounts: the seed a job observes is a pure
// function of (rootSeed, jobID) — never of worker count, scheduling or
// completion order. Staggered sleeps force different completion orders.
func TestSeedsStableAcrossWorkerCounts(t *testing.T) {
	const n = 12
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		// Later-submitted jobs finish first, so completion order is the
		// reverse of submission order on a parallel pool.
		delay := time.Duration(n-i) * time.Millisecond
		jobs[i] = Job{ID: fmt.Sprintf("seed/job%d", i), Run: func(ctx *Ctx) (any, error) {
			time.Sleep(delay)
			return ctx.Seed, nil
		}}
	}
	var serial []any
	for _, workers := range []int{1, 2, 4, 16} {
		results := Run(jobs, Options{Workers: workers, RootSeed: 99})
		vals, err := Values(results)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serial = vals
			for i, v := range vals {
				if want := rng.DeriveSeed(99, jobs[i].ID); v != want {
					t.Fatalf("job %d seed = %v, want %v", i, v, want)
				}
			}
			continue
		}
		for i := range vals {
			if vals[i] != serial[i] {
				t.Fatalf("workers=%d: seed[%d] = %v, serial saw %v", workers, i, vals[i], serial[i])
			}
		}
	}
}

// TestPanicIsolation: a planted panicking job becomes a failed Result with
// the panic value and a stack trace; its siblings complete normally.
func TestPanicIsolation(t *testing.T) {
	jobs := echoJobs(9)
	jobs[4] = Job{ID: "boom/job", Run: func(ctx *Ctx) (any, error) {
		panic("planted failure")
	}}
	for _, workers := range []int{1, 4} {
		results := Run(jobs, Options{Workers: workers})
		for i, r := range results {
			if i == 4 {
				if !r.Panicked || r.Err == nil {
					t.Fatalf("workers=%d: planted panic not captured: %+v", workers, r)
				}
				if !strings.Contains(r.Err.Error(), "planted failure") ||
					!strings.Contains(r.Err.Error(), "runner_test.go") {
					t.Fatalf("workers=%d: panic error lacks value or stack: %v", workers, r.Err)
				}
				continue
			}
			if r.Err != nil || r.Value == nil {
				t.Fatalf("workers=%d: sibling %d affected by panic: %+v", workers, i, r)
			}
		}
		if _, err := Values(results); err == nil {
			t.Fatalf("workers=%d: Values did not surface the failure", workers)
		}
	}
}

// TestErrorResult: an ordinary error is reported without the panic flag.
func TestErrorResult(t *testing.T) {
	sentinel := errors.New("no data")
	results := Run([]Job{{ID: "e", Run: func(*Ctx) (any, error) { return nil, sentinel }}}, Options{Workers: 1})
	if r := results[0]; !errors.Is(r.Err, sentinel) || r.Panicked {
		t.Fatalf("result = %+v, want wrapped sentinel, no panic flag", r)
	}
}

// TestDuplicateIDPanics: duplicate IDs would alias seeds, so Run refuses.
func TestDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate job IDs")
		}
	}()
	noop := func(*Ctx) (any, error) { return nil, nil }
	Run([]Job{{ID: "a", Run: noop}, {ID: "a", Run: noop}}, Options{Workers: 1})
}

// TestBenchReportGroupsSorted: the per-group aggregation is built by
// ranging over a map; the emitted JSON must order groups by sorted key
// regardless of job submission order, or the artifact would differ
// between byte-identical runs. Feed the groups in shuffled orders and
// require identical documents.
func TestBenchReportGroupsSorted(t *testing.T) {
	mk := func(ids []string) BenchReport {
		results := make([]Result, len(ids))
		for i, id := range ids {
			results[i] = Result{ID: id, Index: i, Wall: time.Millisecond, Events: 5}
		}
		return NewBenchReport(results, 4, 1)
	}
	orders := [][]string{
		{"zz/a", "mid/b", "aa/c"},
		{"aa/c", "zz/a", "mid/b"},
		{"mid/b", "aa/c", "zz/a"},
	}
	var wantGroups []string
	for _, ids := range orders {
		rep := mk(ids)
		var got []string
		for _, g := range rep.Groups {
			got = append(got, g.Group)
		}
		if wantGroups == nil {
			wantGroups = []string{"aa", "mid", "zz"}
		}
		if fmt.Sprint(got) != fmt.Sprint(wantGroups) {
			t.Fatalf("input %v: groups %v, want %v", ids, got, wantGroups)
		}
	}
}

// TestWriteStatsJSONRoundTrip: the artifact parses back and carries the
// failure annotations.
func TestWriteStatsJSONRoundTrip(t *testing.T) {
	jobs := echoJobs(5)
	jobs[2] = Job{ID: "bad/job", Run: func(*Ctx) (any, error) { panic("x") }}
	results := Run(jobs, Options{Workers: 2, RootSeed: 3})
	var buf strings.Builder
	if err := WriteStatsJSON(&buf, results, 2, 3); err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal([]byte(buf.String()), &rep); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if rep.Workers != 2 || rep.RootSeed != 3 || len(rep.Jobs) != 5 {
		t.Fatalf("header/jobs wrong: %+v", rep)
	}
	if !rep.Jobs[2].Panicked || rep.Jobs[2].Error == "" {
		t.Fatalf("failed job not annotated: %+v", rep.Jobs[2])
	}
}

// TestCtxRootIsEffectiveRootSeed: every job sees the run's effective root
// seed (the default when Options.RootSeed is zero), whatever the worker
// count — the value sections derive their shared seed from.
func TestCtxRootIsEffectiveRootSeed(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("root/job%d", i), Run: func(ctx *Ctx) (any, error) {
			return ctx.Root, nil
		}}
	}
	for _, root := range []int64{0, 42} {
		want := root
		if want == 0 {
			want = DefaultRootSeed
		}
		for _, workers := range []int{1, 3} {
			vals, err := Values(Run(jobs, Options{Workers: workers, RootSeed: root}))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if v != want {
					t.Fatalf("root=%d workers=%d: job %d saw Root %v, want %d", root, workers, i, v, want)
				}
			}
		}
	}
}
