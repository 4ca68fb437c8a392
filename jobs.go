package cxl2sim

import (
	"io"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// This file is the public face of the shared-nothing parallel runner: the
// job vocabulary, the experiment-section registry the commands fan out
// over a worker pool, and job constructors for the §V microbenchmark
// methodology. Every job builds its own System or rig, so jobs never share
// mutable state; per-job seeds derive from (root seed, job ID), never from
// scheduling, and results aggregate in submission order — a parallel run
// renders byte-identical output to a serial one.

// Job is one self-contained unit of experiment work.
type Job = runner.Job

// JobCtx is the per-job context (derived seed, event accounting).
type JobCtx = runner.Ctx

// JobResult is one job's outcome, including wall clock and simulated-event
// count for rate reporting.
type JobResult = runner.Result

// JobOptions configures a run: Workers sizes the pool (1 = serial on the
// calling goroutine, 0 = GOMAXPROCS); RootSeed roots the per-job seed
// derivation (0 = DefaultRootSeed); Context (nil = run everything)
// cancels dispatch — jobs not yet started are marked failed with
// Cancelled set while in-flight jobs finish and aggregation order is
// preserved.
type JobOptions = runner.Options

// DefaultRootSeed is the root seed used when JobOptions.RootSeed is zero.
const DefaultRootSeed = runner.DefaultRootSeed

// RunJobs executes jobs over a bounded worker pool and returns their
// results in submission order regardless of completion order. A panicking
// job becomes a failed JobResult; its workers' siblings are unaffected.
func RunJobs(jobs []Job, opts JobOptions) []JobResult { return runner.Run(jobs, opts) }

// FirstJobError returns the first failed job's error, or nil if every job
// succeeded.
func FirstJobError(results []JobResult) error {
	_, err := runner.Values(results)
	return err
}

// CancelledJobCount reports how many jobs were cancelled before dispatch
// (JobOptions.Context fired mid-run).
func CancelledJobCount(results []JobResult) int { return runner.CancelledCount(results) }

// PrintJobStats renders the per-job wall-clock and sim-event-rate table
// plus totals.
func PrintJobStats(w io.Writer, results []JobResult) { runner.PrintStats(w, results) }

// WriteJobStatsJSON writes the per-job and per-group timing stats as JSON
// (the BENCH_experiments.json artifact format).
func WriteJobStatsJSON(w io.Writer, results []JobResult, workers int, rootSeed int64) error {
	return runner.WriteStatsJSON(w, results, workers, rootSeed)
}

// ExperimentSection is one rendered block of cxlbench output: its jobs and
// the renderer that assembles their rows.
type ExperimentSection = experiments.Section

// ExperimentSections returns the cxlbench sections (see
// ExperimentSectionNames for the registry) in presentation order. reps
// scales the infer, workload and cluster sections (0 keeps their
// defaults); the other sections ignore it.
func ExperimentSections(reps int) []ExperimentSection {
	return experiments.Sections(experiments.SectionOptions{Reps: reps})
}

// ExperimentSectionNames lists the registered section names in
// presentation order — the single source for usage text and validation,
// so command help can never drift from the registry.
func ExperimentSectionNames() []string { return experiments.SectionNames() }

// ExperimentSectionByName locates a section among built ones.
func ExperimentSectionByName(secs []ExperimentSection, name string) (ExperimentSection, bool) {
	return experiments.SectionByName(secs, name)
}

// RunExperimentSections executes the sections' jobs on one shared pool and
// renders each section, in order, to w. It returns the per-job results for
// stats reporting and the first section error (a failed job) if any.
func RunExperimentSections(w io.Writer, secs []ExperimentSection, opts JobOptions) ([]JobResult, error) {
	return experiments.RunSections(w, secs, opts)
}

// CollectFig6Rows concatenates fig6 job results into rows (for the CSV
// exporter).
func CollectFig6Rows(results []JobResult) []Fig6Row { return experiments.Rows[Fig6Row](results) }

// MeasureD2HJob wraps System.MeasureD2H as a self-contained job: each run
// builds a fresh System from cfg, so the job is safe to execute on any
// worker alongside any other job.
func MeasureD2HJob(id string, cfg Config, req D2HReq, spec MeasureSpec) Job {
	return measureJob(id, cfg, func(s *System) (Measurement, error) { return s.MeasureD2H(req, spec) })
}

// MeasureD2DJob wraps System.MeasureD2D as a self-contained job.
func MeasureD2DJob(id string, cfg Config, req D2HReq, spec MeasureSpec) Job {
	return measureJob(id, cfg, func(s *System) (Measurement, error) { return s.MeasureD2D(req, spec) })
}

// MeasureH2DJob wraps System.MeasureH2D as a self-contained job.
func MeasureH2DJob(id string, cfg Config, op HostOp, spec MeasureSpec) Job {
	return measureJob(id, cfg, func(s *System) (Measurement, error) { return s.MeasureH2D(op, spec) })
}

// measureJob runs measure on a fresh System. The System has no event
// engine, so the job records no events.
func measureJob(id string, cfg Config, measure func(*System) (Measurement, error)) Job {
	return Job{ID: id, Run: func(*JobCtx) (any, error) {
		s, err := NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		return measure(s)
	}}
}
