package experiments

import (
	"fmt"
	"io"

	"repro/internal/rng"
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
// typed row. The microbenchmark rigs have no event engine, so the job
// records no events. Cells draw no per-job randomness, so they take no
// seed.
func cellJob[T any](id string, cell func() T) runner.Job {
	return runner.Job{ID: id, Run: func(*runner.Ctx) (any, error) {
		return []T{cell()}, nil
	}}
}

// sliceJob wraps a cell producing several rows at once (e.g. one Fig. 6
// mechanism across all sizes).
func sliceJob[T any](id string, cell func() []T) runner.Job {
	return runner.Job{ID: id, Run: func(*runner.Ctx) (any, error) {
		return cell(), nil
	}}
}

// sectionSeed is the seed every job of a section shares when its rows must
// compare runs over one stream: rng.DeriveSeed(root, section), the seed a
// single job named after the section would get.
func sectionSeed(ctx *runner.Ctx, section string) int64 {
	return rng.DeriveSeed(ctx.Root, section)
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
	// Reps scales the request count of the infer, workload and cluster
	// sections (0 keeps their defaults); the other sections ignore it.
	Reps int
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
	{"fig3", func(SectionOptions) []runner.Job { return Fig3Jobs() }, renderRows(printFig3)},
	{"fig4", func(SectionOptions) []runner.Job { return Fig4Jobs() }, renderRows(printFig4)},
	{"fig5", func(SectionOptions) []runner.Job { return Fig5Jobs() }, renderRows(printFig5)},
	{"fig6", func(SectionOptions) []runner.Job { return Fig6Jobs() }, renderRows(printFig6)},
	{"wqsweep", func(SectionOptions) []runner.Job { return WriteQueueSweepJobs(nil) }, renderRows(PrintWriteQueueSweep)},
	{"infer", func(o SectionOptions) []runner.Job {
		return InferJobs(InferConfig{Reps: o.Reps, Trace: o.Trace})
	}, renderRows(PrintInfer)},
	{"workload", func(o SectionOptions) []runner.Job { return WorkloadJobs(o.Reps) }, renderRows(printWorkload)},
	{"cluster", func(o SectionOptions) []runner.Job { return ClusterJobs(o.Reps) }, renderRows(printCluster)},
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
