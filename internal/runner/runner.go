// Package runner executes experiment jobs on a bounded worker pool with
// shared-nothing semantics: every job constructs its own simulation engine
// and topology, so jobs never share mutable state and per-engine
// determinism is preserved while the suite scales with host cores. The
// pool is the only scheduler: a job is one leaf co-simulation, and jobs
// that must share a seed with the rest of their section derive it from
// the run's root seed (Ctx.Root).
//
// Three invariants make a parallel run indistinguishable from a serial
// one:
//
//   - per-job seeds derive from (root seed, job ID) through the
//     internal/rng registry — never from goroutine order — so a job sees
//     the same randomness whether it runs first on one worker or last on
//     sixteen;
//   - results are aggregated in job-submission order regardless of
//     completion order, so report output rendered from them is
//     byte-identical to the serial run;
//   - a panicking job is captured (value + stack) and converted into a
//     failed Result instead of killing its worker or the suite.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/rng"
)

// Job is one self-contained experiment: Run builds its own engine and
// topology, measures, and returns a typed result. ID doubles as the seed
// derivation path and the stats label, so it must be unique within a
// suite and stable across code motion (renaming an ID is a reseeding
// event for that job).
type Job struct {
	ID  string
	Run func(ctx *Ctx) (any, error)
}

// Ctx is the per-job context handed to Run.
type Ctx struct {
	// Seed is the job's derived seed: rng.DeriveSeed(Root, jobID).
	Seed int64
	// Root is the run's effective root seed. Jobs that must share one
	// seed with the rest of their section (every scenario serving the same
	// request stream) derive it from Root and the section's name.
	Root int64
	// events accumulates the job's simulated work for the event-rate stat.
	events uint64
}

// AddEvents records n events that a sim.Engine dispatched for this job
// (Engine.Executed). Jobs without an engine record none: an estimate of
// their work would be a rate no one measured.
func (c *Ctx) AddEvents(n uint64) { c.events += n }

// Result is one job's outcome in submission order.
type Result struct {
	ID    string
	Index int
	// Value is Run's typed result; nil when the job failed.
	Value any
	// Err is Run's error, or the captured panic (with stack) for a
	// crashed job.
	Err error
	// Panicked distinguishes a captured panic from an ordinary error.
	Panicked bool
	// Cancelled marks a job that was never dispatched because
	// Options.Context was done; Err then wraps the context's error.
	Cancelled bool
	// Wall is the job's host wall-clock duration.
	Wall time.Duration
	// Events is the job's simulated-event count (see Ctx.AddEvents).
	Events uint64
}

// EventsPerSec reports the job's simulated-event rate against host
// wall-clock time, or 0 when nothing was recorded.
func (r Result) EventsPerSec() float64 {
	if r.Events == 0 || r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// Options shapes a Run.
type Options struct {
	// Workers bounds the pool; <= 0 takes GOMAXPROCS. 1 is the serial
	// mode: jobs run on the calling goroutine in submission order.
	Workers int
	// RootSeed roots every job's derived seed.
	RootSeed int64
	// Context, when non-nil, bounds the run: once it is done, jobs not
	// yet dispatched are skipped and marked failed (Cancelled=true,
	// Err wrapping ctx.Err()) while in-flight jobs run to completion.
	// Aggregation order is unaffected — result i always describes job i.
	// nil means run everything (context.Background()).
	Context context.Context
}

// DefaultRootSeed is the root seed used when a caller leaves
// Options.RootSeed zero, chosen to match the repository's other
// single-integer reproducibility knobs (fuzzer, Fig. 8) which default
// to 1.
const DefaultRootSeed int64 = 1

// Effective returns the options with defaults resolved — the worker count
// and root seed Run will actually use. Callers recording run metadata
// (e.g. the stats JSON) use this rather than re-deriving the defaults.
func (o Options) Effective() Options {
	o.setDefaults()
	return o
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RootSeed == 0 {
		o.RootSeed = DefaultRootSeed
	}
}

// Run executes jobs and returns their results indexed and ordered by
// submission position. Duplicate job IDs are a programmer error (they
// would alias seeds) and panic before any job starts.
func Run(jobs []Job, opts Options) []Result {
	opts.setDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]struct{}, len(jobs))
	for _, j := range jobs {
		if _, dup := seen[j.ID]; dup {
			panic(fmt.Sprintf("runner: duplicate job ID %q", j.ID))
		}
		seen[j.ID] = struct{}{}
	}

	results := make([]Result, len(jobs))
	if opts.Workers == 1 {
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				cancelFrom(results, jobs, i, err)
				return results
			}
			results[i] = runOne(jobs[i], i, opts.RootSeed)
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(jobs[i], i, opts.RootSeed)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := range jobs {
		// Poll first so cancellation wins over a ready worker: once the
		// context is done, at most the send already in flight dispatches.
		if err := ctx.Err(); err != nil {
			cancelFrom(results, jobs, i, err)
			break dispatch
		}
		select {
		case <-done:
			cancelFrom(results, jobs, i, ctx.Err())
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// cancelFrom marks jobs[from:] as cancelled with cause. The entries are
// written before the worker pool is drained, which is safe: an index is
// either dispatched (a worker owns its result slot) or cancelled here,
// never both.
func cancelFrom(results []Result, jobs []Job, from int, cause error) {
	for i := from; i < len(jobs); i++ {
		results[i] = Result{
			ID:        jobs[i].ID,
			Index:     i,
			Cancelled: true,
			Err:       fmt.Errorf("runner: job %q cancelled: %w", jobs[i].ID, cause),
		}
	}
}

// CancelledCount reports how many results were cancelled before dispatch.
func CancelledCount(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Cancelled {
			n++
		}
	}
	return n
}

// runOne executes a single job, converting a panic into a failed Result.
func runOne(j Job, index int, rootSeed int64) (res Result) {
	ctx := &Ctx{Seed: rng.DeriveSeed(rootSeed, j.ID), Root: rootSeed}
	res = Result{ID: j.ID, Index: index}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		res.Events = ctx.events
		if r := recover(); r != nil {
			res.Value = nil
			res.Panicked = true
			res.Err = fmt.Errorf("runner: job %q panicked: %v\n%s", j.ID, r, debug.Stack())
		}
	}()
	res.Value, res.Err = j.Run(ctx)
	return res
}

// Values extracts the job results in order, returning the first failure
// encountered (if any) so callers can render partial output or abort.
func Values(results []Result) ([]any, error) {
	vals := make([]any, len(results))
	var firstErr error
	for i, r := range results {
		vals[i] = r.Value
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("job %q: %w", r.ID, r.Err)
		}
	}
	return vals, firstErr
}
