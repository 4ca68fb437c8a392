// Command report regenerates the paper-vs-measured comparison as markdown:
// it runs every microbenchmark experiment (and, with -full, the Fig. 8
// co-simulations), computes the paper's headline ratios from the fresh
// measurements, and prints them next to the published numbers. The output
// of `report -full` is the data behind EXPERIMENTS.md.
//
// Experiments run as self-contained jobs over a shared-nothing worker
// pool (-parallel, default GOMAXPROCS workers); per-job seeds derive from
// -seed and the job ID, so the report is byte-identical for any worker
// count. Per-job wall-clock and sim-event-rate stats print to stderr at
// the end; only jobs that run an event engine (the cluster scenarios and
// the Fig. 8 co-simulations) report events.
//
// Usage:
//
//	report [-full] [-parallel N | -serial] [-seed S] [-bench-json PATH]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	cxl2sim "repro"
	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "also run the Fig. 8 co-simulations (a few seconds)")
	parallel := flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	serial := flag.Bool("serial", false, "run on a single worker (same as -parallel 1)")
	seed := flag.Int64("seed", cxl2sim.DefaultRootSeed, "root seed for per-job seed derivation")
	noStats := flag.Bool("no-stats", false, "suppress the per-job stats table on stderr")
	benchJSON := flag.String("bench-json", "", "write per-job timing stats as JSON to this path")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "report: unknown argument %q (report takes only flags)\n", flag.Arg(0))
		os.Exit(2)
	}

	sec := experiments.Report(*full)

	if !*full {
		fmt.Fprintln(os.Stderr, "(skipping Fig. 8 co-simulations; pass -full to include them)")
	}
	workers := *parallel
	if *serial {
		workers = 1
	}
	// SIGINT/SIGTERM cancel job dispatch: in-flight jobs finish, queued
	// ones are skipped, and the run exits non-zero with a cancellation
	// note instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := cxl2sim.JobOptions{Workers: workers, RootSeed: *seed, Context: ctx}
	results := cxl2sim.RunJobs(sec.Jobs, opts)
	err := sec.Render(os.Stdout, results)
	if !*noStats {
		cxl2sim.PrintJobStats(os.Stderr, results)
	}
	if *benchJSON != "" {
		eff := opts.Effective()
		f, cerr := os.Create(*benchJSON)
		if cerr == nil {
			cerr = cxl2sim.WriteJobStatsJSON(f, results, eff.Workers, eff.RootSeed)
			if closeErr := f.Close(); cerr == nil {
				cerr = closeErr
			}
		}
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "report:", cerr)
			os.Exit(1)
		}
	}
	if n := cxl2sim.CancelledJobCount(results); n > 0 {
		fmt.Fprintf(os.Stderr, "report: cancelled after %d/%d jobs\n", len(results)-n, len(results))
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}
