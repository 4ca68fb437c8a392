// Command cxlbench regenerates the paper's device-characterization
// experiments (§V): Fig. 3 (D2H true vs emulated), Fig. 4 (D2D bias
// modes), Fig. 5 (H2D Type-2 vs Type-3), Fig. 6 (CXL vs PCIe transfer
// sweep), Table III (coherence states), the §V-A write-queue sweep, the
// LLM-serving KV-cache placement study (infer), the traffic-model
// section (workload), and the multi-host pooled-memory study (cluster).
//
// Experiments run as self-contained jobs over a shared-nothing worker
// pool (-parallel, default GOMAXPROCS workers); per-job seeds derive from
// -seed and the job ID, so output is byte-identical for any worker count.
// Per-job wall-clock and sim-event-rate stats print to stderr at the end.
//
// Usage:
//
//	cxlbench [-reps N] [-parallel N | -serial] [-seed S]
//	         [-bench-json PATH] [<section>|all]
//
// where <section> is any name from the section registry (run with -h for
// the current list).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	cxl2sim "repro"
	"repro/internal/dist"
)

func main() { os.Exit(run()) }

// run holds the real body so profile-flushing defers execute before the
// process exits with the right status code.
func run() int {
	reps := flag.Int("reps", 1000, "repetitions per measurement (the paper uses >= 1000)")
	parallel := flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "workers per cluster simulation for sharded PDES execution (0/1 = inline; output is byte-identical at any value)")
	serial := flag.Bool("serial", false, "run on a single worker (same as -parallel 1)")
	seed := flag.Int64("seed", cxl2sim.DefaultRootSeed, "root seed for per-job seed derivation")
	noStats := flag.Bool("no-stats", false, "suppress the per-job stats table on stderr")
	benchJSON := flag.String("bench-json", "", "write per-job timing stats as JSON to this path")
	dump := flag.String("dump-params", "", "write the calibrated timing parameters as JSON to this path and exit")
	csv := flag.Bool("csv", false, "emit fig6 as CSV (plot-friendly) instead of a table")
	recordTrace := flag.String("record-trace", "", "write the infer section's request stream as a binary trace to this path and exit")
	replayTrace := flag.String("replay-trace", "", "replay a recorded trace through the infer section instead of generating the stream")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	flag.Usage = func() {
		// The section list comes from the registry, so adding a section
		// updates the help text automatically (the hand-written list
		// drifted every time one landed).
		names := strings.Join(cxl2sim.ExperimentSectionNames(), "|")
		fmt.Fprintf(os.Stderr, "usage: cxlbench [-reps N] [-parallel N | -serial] [-seed S] [%s|all]\n", names)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *dump != "" {
		if err := cxl2sim.SaveParams(cxl2sim.DefaultParams(), *dump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", *dump)
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxlbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cxlbench:", err)
			return 1
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cxlbench:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cxlbench:", err)
			}
			f.Close()
		}()
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

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	if *recordTrace != "" {
		// Record the exact stream the infer section would serve under this
		// seed; replaying it (-replay-trace) reproduces the section byte
		// for byte.
		t := cxl2sim.RecordInferTrace(*seed, cxl2sim.InferConfig{Reps: *reps})
		if err := os.WriteFile(*recordTrace, t.Encode(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cxlbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "cxlbench: recorded %d requests to %s (hash %016x)\n",
			len(t.Requests), *recordTrace, t.Hash())
		return 0
	}

	secs := cxl2sim.ExperimentSectionsSharded(*reps, *shards)
	if which != "all" {
		sec, ok := cxl2sim.ExperimentSectionByName(secs, which)
		if !ok {
			flag.Usage()
			return 2
		}
		secs = []cxl2sim.ExperimentSection{sec}
	}

	if *replayTrace != "" {
		if which != "infer" {
			fmt.Fprintln(os.Stderr, "cxlbench: -replay-trace applies to the infer section (pass `infer`)")
			return 2
		}
		raw, rerr := os.ReadFile(*replayTrace)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "cxlbench:", rerr)
			return 1
		}
		// The same decode and replay precondition the daemon and the dist
		// workers apply: a trace the section cannot serve fails here, as
		// one line, instead of panicking inside a job.
		sec, berr := dist.Spec{Kind: "section", Section: "infer", Reps: *reps, Trace: raw}.Build()
		if berr != nil {
			fmt.Fprintln(os.Stderr, "cxlbench:", berr)
			return 1
		}
		secs = []cxl2sim.ExperimentSection{sec}
	}

	var results []cxl2sim.JobResult
	var err error
	if *csv {
		// CSV wants the fig6 rows, not the rendered table.
		sec, ok := cxl2sim.ExperimentSectionByName(secs, "fig6")
		if !ok {
			fmt.Fprintln(os.Stderr, "cxlbench: -csv applies to fig6 (or all)")
			return 2
		}
		results = cxl2sim.RunJobs(sec.Jobs, opts)
		if err = cxl2sim.FirstJobError(results); err == nil {
			err = cxl2sim.WriteFig6CSV(os.Stdout, cxl2sim.CollectFig6Rows(results))
		}
	} else {
		results, err = cxl2sim.RunExperimentSections(os.Stdout, secs, opts)
	}

	if !*noStats {
		cxl2sim.PrintJobStats(os.Stderr, results)
	}
	if *benchJSON != "" {
		if jerr := writeBenchJSON(*benchJSON, results, opts); jerr != nil {
			fmt.Fprintln(os.Stderr, "cxlbench:", jerr)
			return 1
		}
	}
	if n := cxl2sim.CancelledJobCount(results); n > 0 {
		fmt.Fprintf(os.Stderr, "cxlbench: cancelled after %d/%d jobs\n", len(results)-n, len(results))
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlbench:", err)
		return 1
	}
	return 0
}

func writeBenchJSON(path string, results []cxl2sim.JobResult, opts cxl2sim.JobOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	eff := opts.Effective()
	if err := cxl2sim.WriteJobStatsJSON(f, results, eff.Workers, eff.RootSeed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
