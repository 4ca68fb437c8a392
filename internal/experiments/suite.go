package experiments

import (
	"fmt"
	"io"

	"repro/internal/runner"
	"repro/internal/workload"
)

// This file is the experiment registry: every figure and table of the
// paper's evaluation decomposed into self-contained runner jobs (one rig
// or co-simulation per job, nothing shared), plus the section table the
// commands fan out over a worker pool. Serial and parallel runs share the
// one enumeration, so they render byte-identical output for the same root
// seed.

// cellJob wraps one measurement cell as a runner job: the cell returns one
// typed row; ops is the simulated access count credited to the event-rate
// stat (the microbenchmark rigs have no central event queue, so accesses
// are the honest unit). Cells draw no per-job randomness, so they take
// no seed.
func cellJob[T any](id string, ops int, cell func() T) runner.Job {
	return runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
		ctx.AddEvents(uint64(ops))
		return []T{cell()}, nil
	}}
}

// sliceJob wraps a cell producing several rows at once (e.g. one Fig. 6
// mechanism across all sizes).
func sliceJob[T any](id string, ops int, cell func() []T) runner.Job {
	return runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
		ctx.AddEvents(uint64(ops))
		return cell(), nil
	}}
}

// forkRows fans subs out through ctx.Fork — intra-job parallelism for the
// big slice sections — and concatenates their []T fragments in submission
// order, surfacing the first sub-job failure (captured panics included) as
// the job's error. Because Fork merges in submission order and every sub's
// randomness is resolved from seeds rather than scheduling, the
// concatenation is byte-identical to running the cells inline.
func forkRows[T any](ctx *runner.Ctx, subs []runner.SubJob) ([]T, error) {
	var rows []T
	for _, r := range ctx.Fork(subs) {
		if r.Err != nil {
			return nil, r.Err
		}
		if frag, ok := r.Value.([]T); ok {
			rows = append(rows, frag...)
		}
	}
	return rows, nil
}

// Rows concatenates the per-job []T row fragments of a finished run in
// job order. A failed job's fragment is skipped; callers surface the error
// through runner.Values before rendering.
func Rows[T any](results []runner.Result) []T {
	var rows []T
	for _, r := range results {
		if frag, ok := r.Value.([]T); ok {
			rows = append(rows, frag...)
		}
	}
	return rows
}

// Section is one rendered block of experiment output: the jobs that
// produce its rows and the renderer that assembles them, in job order,
// into the block. Render must not depend on anything but the passed
// results — sections from one suite run can be rendered in any order.
type Section struct {
	Name   string
	Jobs   []runner.Job
	Render func(w io.Writer, results []runner.Result) error
}

// SectionOptions is everything a section constructor reads.
type SectionOptions struct {
	// Reps tunes the repetition count of the experiments that take one
	// (0 keeps the paper's defaults).
	Reps int
	// ClusterShards caps the worker count for sharded PDES execution of
	// each cluster simulation (0 or 1 runs inline); workers are recruited
	// from the runner pool (see ClusterConfig.Shards). Rows are
	// byte-identical at every setting, so it never joins a cache key.
	ClusterShards int
	// Trace replaces the infer section's generated request stream with a
	// recorded one; the other sections ignore it. It must pass
	// CheckInferTrace.
	Trace *workload.Trace
}

// registry is the one table of experiment sections, in presentation
// order: each entry builds its section's jobs from the options and renders
// their rows with the figure's printer.
var registry = []struct {
	name   string
	jobs   func(SectionOptions) []runner.Job
	render func(io.Writer, []runner.Result) error
}{
	{"table3", func(SectionOptions) []runner.Job { return Table3Jobs() }, renderRows(PrintTable3)},
	{"fig3", func(o SectionOptions) []runner.Job { return Fig3Jobs(Fig3Config{Reps: o.Reps}) }, renderRows(PrintFig3)},
	{"fig4", func(o SectionOptions) []runner.Job { return Fig4Jobs(Fig4Config{Reps: o.Reps}) }, renderRows(PrintFig4)},
	{"fig5", func(o SectionOptions) []runner.Job { return Fig5Jobs(Fig5Config{Reps: o.Reps}) }, renderRows(PrintFig5)},
	{"fig6", func(SectionOptions) []runner.Job { return Fig6Jobs() }, renderRows(PrintFig6)},
	{"wqsweep", func(SectionOptions) []runner.Job { return WriteQueueSweepJobs(nil) }, renderRows(PrintWriteQueueSweep)},
	{"infer", func(o SectionOptions) []runner.Job {
		return InferJobs(InferConfig{Reps: o.Reps, Trace: o.Trace})
	}, renderRows(PrintInfer)},
	{"workload", func(o SectionOptions) []runner.Job { return WorkloadJobs(WorkloadConfig{Reps: o.Reps}) }, renderRows(PrintWorkload)},
	{"cluster", func(o SectionOptions) []runner.Job {
		return ClusterJobs(ClusterConfig{Reps: o.Reps, Shards: o.ClusterShards})
	}, renderRows(PrintCluster)},
}

// renderRows adapts a figure printer into a section renderer: it fails on
// the first failed job, else prints the collected rows.
func renderRows[T any](print func(io.Writer, []T)) func(io.Writer, []runner.Result) error {
	return func(w io.Writer, results []runner.Result) error {
		if _, err := runner.Values(results); err != nil {
			return err
		}
		print(w, Rows[T](results))
		return nil
	}
}

// Sections builds every registered section in presentation order.
func Sections(o SectionOptions) []Section {
	secs := make([]Section, len(registry))
	for i, e := range registry {
		secs[i] = Section{Name: e.name, Jobs: e.jobs(o), Render: e.render}
	}
	return secs
}

// Lookup builds the named section alone.
func Lookup(name string, o SectionOptions) (Section, bool) {
	for _, e := range registry {
		if e.name == name {
			return Section{Name: e.name, Jobs: e.jobs(o), Render: e.render}, true
		}
	}
	return Section{}, false
}

// SectionNames lists the registered section names in presentation order —
// the single source the commands derive their usage text and section
// validation from, so the list can never drift from the registry.
func SectionNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// SectionByName locates a section among already-built ones.
func SectionByName(secs []Section, name string) (Section, bool) {
	for _, s := range secs {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// RunSections executes the given sections' jobs on one shared pool (the
// fine-grained cells load-balance across workers better than one pool per
// section would) and renders each section in order. It returns the
// per-job results for stats reporting.
func RunSections(w io.Writer, secs []Section, opts runner.Options) ([]runner.Result, error) {
	var jobs []runner.Job
	for _, s := range secs {
		jobs = append(jobs, s.Jobs...)
	}
	results := runner.Run(jobs, opts)
	off := 0
	var firstErr error
	for _, s := range secs {
		if err := s.Render(w, results[off:off+len(s.Jobs)]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("section %s: %w", s.Name, err)
		}
		off += len(s.Jobs)
	}
	return results, firstErr
}
