// Command kvsbench regenerates the paper's end-to-end kernel-feature
// experiments (§VI–VII): Fig. 8 (Redis p99 under zswap/ksm variants),
// Table IV (offload latency breakdown) and the host-CPU-cycle analysis.
//
// Every part runs as runner jobs on one shared pool (GOMAXPROCS workers,
// the default root seed) and renders in order, so the output is
// byte-identical at any worker count and its Fig. 8 rows equal the ones
// `report -full` prints for the same root seed.
//
// Usage:
//
//	kvsbench [-feature zswap|ksm|both] [-workloads A,B,C,D] [-ms 300] [fig8|table4|cycles|all]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	cxl2sim "repro"
	"repro/internal/experiments"
)

func main() {
	feature := flag.String("feature", "both", "zswap, ksm or both")
	workloads := flag.String("workloads", "A,B,C,D", "comma-separated YCSB workloads")
	ms := flag.Int("ms", 300, "simulated milliseconds per run")
	zipf := flag.Bool("zipfian", false, "use YCSB's zipfian key distribution instead of the paper's uniform")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kvsbench [flags] [fig8|table4|cycles|all]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	// The horizon must be positive and fit the picosecond clock.
	if maxMs := math.MaxInt64 / int64(cxl2sim.Millisecond); *ms <= 0 || int64(*ms) > maxMs {
		fmt.Fprintf(os.Stderr, "kvsbench: -ms must be > 0 and <= %d, got %d\n", maxMs, *ms)
		os.Exit(2)
	}

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	cfg := experiments.Fig8Config{Duration: cxl2sim.Time(*ms) * cxl2sim.Millisecond, Zipfian: *zipf}

	// A bad flag value fails here as one line with exit 2, never as a run.
	// A repeated workload would repeat its job IDs.
	var wl []cxl2sim.Workload
	for _, s := range strings.Split(*workloads, ",") {
		switch l := strings.TrimSpace(strings.ToUpper(s)); l {
		case "A", "B", "C", "D":
			w := cxl2sim.Workloads()[l[0]-'A']
			if slices.Contains(wl, w) {
				fmt.Fprintf(os.Stderr, "kvsbench: workload %s repeated in -workloads\n", l)
				os.Exit(2)
			}
			wl = append(wl, w)
		default:
			fmt.Fprintf(os.Stderr, "kvsbench: unknown workload %q in -workloads (want A, B, C or D)\n", s)
			os.Exit(2)
		}
	}

	features := []string{"zswap", "ksm"}
	switch *feature {
	case "both":
	case "zswap", "ksm":
		features = []string{*feature}
	default:
		fmt.Fprintf(os.Stderr, "kvsbench: unknown -feature %q (want zswap, ksm or both)\n", *feature)
		os.Exit(2)
	}

	// Each part is a job list and the printer of its finished results.
	type part struct {
		jobs  []cxl2sim.Job
		print func(io.Writer, []cxl2sim.JobResult)
	}
	var parts []part
	table4 := func() {
		parts = append(parts, part{experiments.Table4Jobs(), func(w io.Writer, res []cxl2sim.JobResult) {
			experiments.PrintTable4(w, experiments.Rows[experiments.Table4Row](res))
		}})
	}
	fig8 := func(wl []cxl2sim.Workload, print func(io.Writer, []experiments.Fig8Row)) {
		for _, f := range features {
			parts = append(parts, part{experiments.Fig8Jobs(f, wl, cfg), func(w io.Writer, res []cxl2sim.JobResult) {
				print(w, experiments.Fig8Rows(res))
			}})
		}
	}
	switch which {
	case "table4":
		table4()
	case "fig8":
		fig8(wl, experiments.PrintFig8)
	case "cycles":
		fig8(wl[:1], printCycles)
	case "all":
		table4()
		fig8(wl, experiments.PrintFig8)
	default:
		flag.Usage()
		os.Exit(2)
	}

	var jobs []cxl2sim.Job
	for _, p := range parts {
		jobs = append(jobs, p.jobs...)
	}
	results := cxl2sim.RunJobs(jobs, cxl2sim.JobOptions{})
	// A partial run never prints: the first failed job fails the command.
	if err := cxl2sim.FirstJobError(results); err != nil {
		fmt.Fprintln(os.Stderr, "kvsbench:", err)
		os.Exit(1)
	}
	for _, p := range parts {
		p.print(os.Stdout, results[:len(p.jobs)])
		results = results[len(p.jobs):]
	}
}

// printCycles reports the §VII host-CPU-cycle and LLC-pollution analysis
// from one feature's rows of one workload.
func printCycles(w io.Writer, rows []experiments.Fig8Row) {
	f := rows[0].Feature
	fmt.Fprintf(w, "\n§VII — %s host-CPU cycles and LLC pollution (workload %v)\n", f, rows[0].Workload)
	fmt.Fprintf(w, "%-18s%-12s%-16s\n", "config", "featCPU%", "polluted-lines")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s%-12.1f%-16d\n", r.Variant.String()+"-"+f, r.FeatureCPUPct, r.PollutedLines)
	}
}
