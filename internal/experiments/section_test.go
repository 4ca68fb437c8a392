package experiments

import (
	"bytes"
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

func TestFig8SectionParallelMatchesSerial(t *testing.T) {
	// A short horizon keeps the five co-simulations affordable; cfg.Seed
	// stays 0 so each variant runs under its derived seed — the path a
	// parallel report run takes.
	cfg := Fig8Config{Duration: 30 * sim.Millisecond}
	checkParallelMatchesSerial(t, Section{Name: "fig8",
		Jobs: Fig8Jobs("zswap", []ycsb.Workload{ycsb.A}, cfg), Render: renderRows(PrintFig8)})
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
	secs := append(Sections(SectionOptions{Reps: 7}), reportParts(7, true)...)
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
