// Command kvsbench regenerates the paper's end-to-end kernel-feature
// experiments (§VI–VII): Fig. 8 (Redis p99 under zswap/ksm variants),
// Table IV (offload latency breakdown) and the host-CPU-cycle analysis.
//
// Usage:
//
//	kvsbench [-feature zswap|ksm|both] [-workloads A,B,C,D] [-ms 300] [fig8|table4|cycles|all]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	cxl2sim "repro"
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
	cfg := cxl2sim.Fig8Config{Duration: cxl2sim.Time(*ms) * cxl2sim.Millisecond, Zipfian: *zipf}

	// A bad flag value fails here as one line with exit 2, never as a run.
	var wl []cxl2sim.Workload
	for _, s := range strings.Split(*workloads, ",") {
		switch l := strings.TrimSpace(strings.ToUpper(s)); l {
		case "A", "B", "C", "D":
			wl = append(wl, cxl2sim.Workloads()[l[0]-'A'])
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

	switch which {
	case "table4":
		cxl2sim.PrintTable4(os.Stdout, cxl2sim.RunTable4())
	case "fig8":
		for _, f := range features {
			cxl2sim.PrintFig8(os.Stdout, cxl2sim.RunFig8(f, wl, cfg))
		}
	case "cycles":
		printCycles(features, wl, cfg)
	case "all":
		cxl2sim.PrintTable4(os.Stdout, cxl2sim.RunTable4())
		for _, f := range features {
			rows := cxl2sim.RunFig8(f, wl, cfg)
			cxl2sim.PrintFig8(os.Stdout, rows)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// printCycles reports the §VII host-CPU-cycle and LLC-pollution analysis.
func printCycles(features []string, wl []cxl2sim.Workload, cfg cxl2sim.Fig8Config) {
	for _, f := range features {
		rows := cxl2sim.RunFig8(f, wl[:1], cfg)
		fmt.Printf("\n§VII — %s host-CPU cycles and LLC pollution (workload %v)\n", f, wl[0])
		fmt.Printf("%-18s%-12s%-16s\n", "config", "featCPU%", "polluted-lines")
		for _, r := range rows {
			fmt.Printf("%-18s%-12.1f%-16d\n", r.Variant.String()+"-"+f, r.FeatureCPUPct, r.PollutedLines)
		}
	}
}
