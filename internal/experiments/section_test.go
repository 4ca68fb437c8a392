package experiments

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// Section identity contract: every co-simulation of the infer, workload,
// fig8 and cluster sections is its own runner job, so these sections must
// render byte-identical output on one worker and spread across the pool.
// Each test builds its section once and runs it serially first, then in
// parallel: a job that kept state from the list build (a Temporal source
// built outside Run) would make the second run diverge. CI runs these
// under -race.

// renderSection runs one section's jobs at the given worker count and
// returns the rendered bytes.
func renderSection(t *testing.T, sec Section, workers int) string {
	t.Helper()
	results := runner.Run(sec.Jobs, runner.Options{Workers: workers, RootSeed: 7})
	var buf bytes.Buffer
	if err := sec.Render(&buf, results); err != nil {
		t.Fatalf("workers=%d: render %s: %v", workers, sec.Name, err)
	}
	return buf.String()
}

// lookup builds one registered section at the given repetition count.
func lookup(t *testing.T, name string, reps int) Section {
	t.Helper()
	sec, ok := Lookup(name, SectionOptions{Reps: reps})
	if !ok {
		t.Fatalf("no section %q", name)
	}
	return sec
}

// checkParallelMatchesSerial renders sec serially, then again on the
// smallest genuinely parallel pool and on whatever the host offers, and
// requires the same bytes every time.
func checkParallelMatchesSerial(t *testing.T, sec Section) {
	t.Helper()
	serial := renderSection(t, sec, 1)
	if serial == "" {
		t.Fatalf("empty %s section output", sec.Name)
	}
	counts := []int{2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		if got := renderSection(t, sec, workers); got != serial {
			t.Errorf("%s section bytes diverged at %d workers", sec.Name, workers)
		}
	}
}

func TestInferSectionParallelMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, lookup(t, "infer", 30))
}

func TestWorkloadSectionParallelMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, lookup(t, "workload", 30))
}

// fig8Section is one feature's workload-A Fig8Jobs rendered the way
// kvsbench renders them: nothing unless every job succeeded, then the rows
// with their baseline-normalized p99.
func fig8Section(feature string, cfg Fig8Config) Section {
	return Section{Name: "fig8", Jobs: Fig8Jobs(feature, []ycsb.Workload{ycsb.A}, cfg),
		Render: func(w io.Writer, results []runner.Result) error {
			if _, err := runner.Values(results); err != nil {
				return err
			}
			PrintFig8(w, Fig8Rows(results))
			return nil
		}}
}

func TestFig8SectionParallelMatchesSerial(t *testing.T) {
	// A short horizon keeps the five co-simulations affordable.
	checkParallelMatchesSerial(t, fig8Section("zswap", Fig8Config{Duration: 30 * sim.Millisecond}))
}

// TestFig8JobsCommonRandomNumbers: every job of one (feature, workload)
// group runs under the group's seed, so the baseline and the four backends
// see one arrival stream. Requests complete within their arrival event, so
// every row of a group serves the same count; a variant on a seed of its
// own would serve a different one.
func TestFig8JobsCommonRandomNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation experiment")
	}
	cfg := Fig8Config{Duration: 10 * sim.Millisecond}
	for _, f := range []string{"zswap", "ksm"} {
		jobs := Fig8Jobs(f, []ycsb.Workload{ycsb.A, ycsb.B}, cfg)
		results := runner.Run(jobs, runner.Options{RootSeed: 3})
		if _, err := runner.Values(results); err != nil {
			t.Fatal(err)
		}
		rows := Fig8Rows(results)
		for i, r := range rows {
			base := rows[i/len(Fig8Variants())*len(Fig8Variants())]
			if r.Workload != base.Workload || r.Served != base.Served {
				t.Errorf("%s: %s-%s/%v served %d, its baseline %v served %d",
					f, r.Variant, f, r.Workload, r.Served, base.Workload, base.Served)
			}
		}
	}
}

// TestClusterSectionParallelMatchesSerial: the cluster section —
// replicas drawing from a shared Type-3 pool behind one switch, one job
// per scenario — renders byte-identically serial and parallel.
func TestClusterSectionParallelMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, lookup(t, "cluster", 30))
}

// TestJobGroupsMatchSectionNames: a job's stats group (its ID up to the
// first '/') is the name of the section, or report part, that lists it.
// Per-group stats and per-section job spans both rely on this.
func TestJobGroupsMatchSectionNames(t *testing.T) {
	secs := append(Sections(SectionOptions{Reps: 7}), reportParts(true)...)
	for _, sec := range secs {
		results := make([]runner.Result, len(sec.Jobs))
		for i, j := range sec.Jobs {
			results[i] = runner.Result{ID: j.ID, Index: i}
		}
		if len(results) == 0 {
			t.Errorf("section %s lists no jobs", sec.Name)
		}
		for _, js := range runner.NewBenchReport(results, 1, 1).Jobs {
			if js.Group != sec.Name {
				t.Errorf("section %s: job %q groups as %q", sec.Name, js.ID, js.Group)
			}
		}
	}
}

// TestOnlyEngineJobsCountEvents: a job's Events is the count of events an
// engine dispatched, never an estimate. Of the built sections only the
// cluster scenarios run an engine, so every cluster job must record a
// positive count and every other job none.
func TestOnlyEngineJobsCountEvents(t *testing.T) {
	var jobs []runner.Job
	for _, sec := range Sections(SectionOptions{Reps: 4}) {
		jobs = append(jobs, sec.Jobs...)
	}
	for _, r := range runner.Run(jobs, runner.Options{Workers: 1}) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		engine := strings.HasPrefix(r.ID, "cluster/")
		if engine && r.Events == 0 {
			t.Errorf("job %s recorded no events", r.ID)
		}
		if !engine && r.Events != 0 {
			t.Errorf("job %s recorded %d estimated events, want 0", r.ID, r.Events)
		}
	}
}
