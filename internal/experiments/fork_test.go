package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// Intra-job parallelism contract: the sections that fan sub-jobs out
// through Ctx.Fork (infer, workload, fig8) must render byte-identical
// output whether the subs run inline on one worker or spread across the
// pool. Run these under -race (CI does) to also exercise the Fork
// recruitment path for data races.

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

// forkWorkerCounts covers serial, the smallest genuinely parallel pool,
// and whatever the host offers.
func forkWorkerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

func TestInferIntraJobParallelMatchesSerial(t *testing.T) {
	sec := lookup(t, "infer", 30)
	serial := renderSection(t, sec, 1)
	if serial == "" {
		t.Fatal("empty infer section output")
	}
	for _, workers := range forkWorkerCounts()[1:] {
		if got := renderSection(t, sec, workers); got != serial {
			t.Errorf("infer section bytes diverged at %d workers", workers)
		}
	}
}

func TestWorkloadIntraJobParallelMatchesSerial(t *testing.T) {
	sec := lookup(t, "workload", 30)
	serial := renderSection(t, sec, 1)
	if serial == "" {
		t.Fatal("empty workload section output")
	}
	for _, workers := range forkWorkerCounts()[1:] {
		if got := renderSection(t, sec, workers); got != serial {
			t.Errorf("workload section bytes diverged at %d workers", workers)
		}
	}
}

func TestFig8IntraJobParallelMatchesSerial(t *testing.T) {
	// A short horizon keeps the five co-simulations per job affordable;
	// cfg.Seed stays 0 so each variant runs under its derived sub seed —
	// the path a parallel report run takes.
	cfg := Fig8Config{Duration: 30 * sim.Millisecond}
	sec := Section{Name: "fig8", Jobs: Fig8Jobs("zswap", []ycsb.Workload{ycsb.A}, cfg), Render: renderRows(PrintFig8)}
	serial := renderSection(t, sec, 1)
	if serial == "" {
		t.Fatal("empty fig8 section output")
	}
	for _, workers := range forkWorkerCounts()[1:] {
		if got := renderSection(t, sec, workers); got != serial {
			t.Errorf("fig8 section bytes diverged at %d workers", workers)
		}
	}
}

// TestClusterIntraJobParallelMatchesSerial pins the acceptance-criteria
// identity: the cluster section — 4-replica scenarios drawing from a
// shared Type-3 pool behind one switch, fanned out as Fork sub-jobs —
// renders byte-identically serial and parallel (run under -race in CI).
func TestClusterIntraJobParallelMatchesSerial(t *testing.T) {
	sec := lookup(t, "cluster", 30)
	serial := renderSection(t, sec, 1)
	if serial == "" {
		t.Fatal("empty cluster section output")
	}
	for _, workers := range forkWorkerCounts()[1:] {
		if got := renderSection(t, sec, workers); got != serial {
			t.Errorf("cluster section bytes diverged at %d workers", workers)
		}
	}
}

// TestForkSubJobPanicSurfacesAsJobError: a sub-job crash inside a section
// job must surface through the section's renderer as a job error naming
// the sub, without disturbing sibling sections or jobs.
func TestForkSubJobPanicSurfacesAsJobError(t *testing.T) {
	job := runner.Job{ID: "planted/fork", Run: func(ctx *runner.Ctx) (any, error) {
		subs := []runner.SubJob{
			{ID: "healthy", Run: func(*runner.Ctx) (any, error) { return []int{1}, nil }},
			{ID: "crash", Run: func(*runner.Ctx) (any, error) { panic("planted fork failure") }},
		}
		return forkRows[int](ctx, subs)
	}}
	for _, workers := range []int{1, 2} {
		results := runner.Run([]runner.Job{job}, runner.Options{Workers: workers})
		err := results[0].Err
		if err == nil {
			t.Fatalf("workers=%d: planted sub panic not surfaced", workers)
		}
		for _, want := range []string{"crash", "planted fork failure"} {
			if !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Errorf("workers=%d: error %q does not mention %q", workers, err, want)
			}
		}
		if results[0].Panicked {
			t.Errorf("workers=%d: parent marked Panicked for a captured sub panic", workers)
		}
	}
}
