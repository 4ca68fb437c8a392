package cxl2sim

import (
	"context"
	"fmt"
	"io"

	cxlpkg "repro/internal/cxl"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/ycsb"
)

// ReportOptions tunes WriteReportOpts. Zero values take the defaults noted
// on each field.
type ReportOptions struct {
	// Reps is the repetition count per microbenchmark measurement
	// (0 keeps the paper's 1000).
	Reps int
	// Full also runs the Fig. 8 co-simulations (minutes).
	Full bool
	// Workers sizes the worker pool: 1 runs serially on the calling
	// goroutine, 0 (or negative) uses GOMAXPROCS. The rendered report is
	// byte-identical for any worker count.
	Workers int
	// RootSeed is the root of the per-job seed derivation (0 takes the
	// default root seed). Per-job seeds depend only on (RootSeed, job ID),
	// never on scheduling.
	RootSeed int64
	// Context, when non-nil, cancels the run: undispatched jobs are
	// marked failed (Cancelled) and the report render is skipped.
	Context context.Context
}

// reportGroup is one named slice of the report's job list. The
// enumeration is a pure function of the options, so any process holding
// the same binary derives the identical list — the property the
// distributed coordinator relies on to ship the report's execution to
// worker processes by description rather than by value.
type reportGroup struct {
	name string
	jobs []runner.Job
}

func reportGroups(o ReportOptions) []reportGroup {
	groups := []reportGroup{
		{"fig3", experiments.Fig3Jobs(experiments.Fig3Config{Reps: o.Reps})},
		{"fig4", experiments.Fig4Jobs(experiments.Fig4Config{Reps: o.Reps})},
		{"fig5", experiments.Fig5Jobs(experiments.Fig5Config{Reps: o.Reps})},
		{"fig6", experiments.Fig6Jobs()},
		{"table4", experiments.Table4Jobs()},
	}
	if o.Full {
		cfg := experiments.Fig8Config{}
		groups = append(groups,
			reportGroup{"fig8zswap", experiments.Fig8Jobs("zswap", []ycsb.Workload{ycsb.A}, cfg)},
			reportGroup{"fig8ksm", experiments.Fig8Jobs("ksm", []ycsb.Workload{ycsb.A}, cfg)},
		)
	}
	return groups
}

// ReportJobs enumerates the report's experiment jobs in render order.
// Only Reps and Full shape the list; execution knobs (workers, seed,
// context) do not.
func ReportJobs(o ReportOptions) []runner.Job {
	var jobs []runner.Job
	for _, g := range reportGroups(o) {
		jobs = append(jobs, g.jobs...)
	}
	return jobs
}

// RenderReport renders the comparison table from a finished run of
// ReportJobs(o): results[i] must describe job i of that enumeration. It
// fails without writing when any job failed, so a partial run never
// masquerades as a report.
func RenderReport(w io.Writer, o ReportOptions, results []runner.Result) error {
	groups := reportGroups(o)
	by := make(map[string][]runner.Result, len(groups))
	off := 0
	for _, g := range groups {
		by[g.name] = results[off : off+len(g.jobs)]
		off += len(g.jobs)
	}
	if _, err := runner.Values(results); err != nil {
		return err
	}

	r := &reporter{w: w}
	r.printf("# cxl2sim reproduction report\n\n")
	r.printf("| experiment | relation | paper | measured |\n")
	r.printf("|---|---|---|---|\n")

	r.fig3(experiments.Rows[experiments.Fig3Row](by["fig3"]))
	r.fig4(experiments.Rows[experiments.Fig4Row](by["fig4"]))
	r.fig5(experiments.Rows[experiments.Fig5Row](by["fig5"]))
	r.fig6(experiments.Rows[experiments.Fig6Row](by["fig6"]))
	r.table4(experiments.Rows[experiments.Table4Row](by["table4"]))
	if o.Full {
		r.fig8(experiments.Fig8Collect(by["fig8zswap"]), experiments.Fig8Collect(by["fig8ksm"]))
	}
	return r.err
}

// WriteReportOpts writes the paper-vs-measured comparison as a markdown
// table: it runs every microbenchmark experiment (and, with Full, the
// Fig. 8 co-simulations) as self-contained jobs on one shared worker pool,
// computes the paper's headline ratios from the fresh measurements, and
// prints them next to the published numbers; `report -full` produces the
// data behind EXPERIMENTS.md. It returns the per-job results for stats
// reporting (wall clock, event rate). Rendering happens after all jobs
// complete, in job order, so output bytes do not depend on the worker
// count.
func WriteReportOpts(w io.Writer, o ReportOptions) ([]runner.Result, error) {
	results := runner.Run(ReportJobs(o),
		runner.Options{Workers: o.Workers, RootSeed: o.RootSeed, Context: o.Context})
	return results, RenderReport(w, o, results)
}

// reporter accumulates the first write error so the report functions can
// stay free of error plumbing.
type reporter struct {
	w   io.Writer
	err error
}

func (r *reporter) printf(format string, args ...any) {
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, format, args...)
	}
}

func (r *reporter) row(exp, rel, paper, measured string) {
	r.printf("| %s | %s | %s | %s |\n", exp, rel, paper, measured)
}

func pct(a, b float64) string { return fmt.Sprintf("%+.0f %%", 100*(a-b)/b) }

func (r *reporter) fig3(rows []experiments.Fig3Row) {
	f := func(lbl string, tr, llc bool) experiments.Fig3Row {
		return experiments.Fig3Find(rows, lbl, tr, llc)
	}
	pairs := []struct {
		a, b  string
		llc   bool
		paper string
	}{
		{"NC-rd", "nt-ld", true, "+38 %"},
		{"CS-rd", "ld", true, "+96 %"},
		{"NC-wr", "nt-st", true, "+71 %"},
		{"CO-wr", "st", true, "+56 %"},
		{"NC-rd", "nt-ld", false, "+2 %"},
		{"CS-rd", "ld", false, "+18 %"},
		{"NC-wr", "nt-st", false, "+67 %"},
		{"CO-wr", "st", false, "+57 %"},
	}
	for _, p := range pairs {
		llc := "LLC-0"
		if p.llc {
			llc = "LLC-1"
		}
		a, b := f(p.a, true, p.llc), f(p.b, false, p.llc)
		r.row("Fig. 3", fmt.Sprintf("%s vs %s latency (%s)", p.a, p.b, llc), p.paper,
			pct(a.LatencyNs, b.LatencyNs))
	}
	cs, ld := f("CS-rd", true, false), f("ld", false, false)
	r.row("Fig. 3", "CS-rd/ld bandwidth (LLC-0)", "+76–120 %", pct(cs.BandwidthGBs, ld.BandwidthGBs))
}

func (r *reporter) fig4(rows []experiments.Fig4Row) {
	for _, wr := range []string{"NC-wr", "CO-wr"} {
		hb := experiments.Fig4Find(rows, wr, false, true, false)
		db := experiments.Fig4Find(rows, wr, false, true, true)
		r.row("Fig. 4", wr+" DMC-1 latency, device-bias lower", "~60 %",
			fmt.Sprintf("%.0f %%", 100*(hb.LatencyNs-db.LatencyNs)/hb.LatencyNs))
		r.row("Fig. 4", wr+" DMC-1 bandwidth, device-bias higher", "8–13 %",
			pct(db.BandwidthGBs, hb.BandwidthGBs))
	}
}

func (r *reporter) fig5(rows []experiments.Fig5Row) {
	ld2 := experiments.Fig5Find(rows, cxlpkg.Ld, experiments.CaseT2Miss)
	ld3 := experiments.Fig5Find(rows, cxlpkg.Ld, experiments.CaseT3)
	r.row("Fig. 5", "ld latency, T2 vs T3", "+5 %", pct(ld2.LatencyNs, ld3.LatencyNs))
	owned := experiments.Fig5Find(rows, cxlpkg.Ld, experiments.CaseT2Owned)
	r.row("Fig. 5", "ld latency, DMC-1(owned) vs DMC-0", "+11 %", pct(owned.LatencyNs, ld2.LatencyNs))
	mod := experiments.Fig5Find(rows, cxlpkg.Ld, experiments.CaseT2Modified)
	r.row("Fig. 5", "ld latency, DMC-1(modified) vs DMC-0", "+36–40 %", pct(mod.LatencyNs, ld2.LatencyNs))
	push := experiments.Fig5Find(rows, cxlpkg.Ld, experiments.CaseT2Pushed)
	r.row("Fig. 5", "ld latency after NC-P push", "−82–87 %", pct(push.LatencyNs, ld2.LatencyNs))
}

func (r *reporter) fig6(rows []experiments.Fig6Row) {
	st := experiments.Fig6Find(rows, experiments.MechCXLSt, false, 256)
	for _, m := range []struct {
		mech  experiments.Fig6Mechanism
		paper string
	}{
		{experiments.MechPCIeMMIO, "−83 %"},
		{experiments.MechPCIeDMA, "−72 %"},
		{experiments.MechPCIeRDMA, "−81 %"},
		{experiments.MechPCIeDOCA, "−92 %"},
	} {
		o := experiments.Fig6Find(rows, m.mech, false, 256)
		r.row("Fig. 6", "CXL-ST vs "+m.mech.String()+" (256 B H2D)", m.paper, pct(st.LatencyNs, o.LatencyNs))
	}
	c := experiments.Fig6Find(rows, experiments.MechCXLLd, true, 4096)
	rd := experiments.Fig6Find(rows, experiments.MechPCIeRDMA, true, 4096)
	r.row("Fig. 6", "D2H CXL-LD vs RDMA latency (4 KB)", "~3× lower",
		fmt.Sprintf("%.1f× lower", rd.LatencyNs/c.LatencyNs))
}

func (r *reporter) table4(rows []experiments.Table4Row) {
	cxlT := experiments.Table4Find(rows, "cxl-zswap").Total
	rdma := experiments.Table4Find(rows, "pcie-rdma-zswap").Total
	dma := experiments.Table4Find(rows, "pcie-dma-zswap").Total
	r.row("Table IV", "totals (rdma / dma / cxl, µs)", "10.9 / 6.2 / 3.9",
		fmt.Sprintf("%.1f / %.1f / %.1f", rdma, dma, cxlT))
	r.row("Table IV", "cxl vs rdma", "−64 %", pct(cxlT, rdma))
	r.row("Table IV", "cxl vs dma", "−37 %", pct(cxlT, dma))
}

func (r *reporter) fig8(zw, km []experiments.Fig8Row) {
	norm := func(rows []experiments.Fig8Row, v experiments.Fig8Variant) float64 {
		return experiments.Fig8Find(rows, v, ycsb.A).NormP99
	}
	r.row("Fig. 8", "cpu-zswap p99", "5.1–10.3×", fmt.Sprintf("%.1f×", norm(zw, 0)))
	r.row("Fig. 8", "pcie-rdma-zswap p99", "1.29–1.49×", fmt.Sprintf("%.2f×", norm(zw, 1)))
	r.row("Fig. 8", "pcie-dma-zswap p99", "1.18–1.93×", fmt.Sprintf("%.2f×", norm(zw, 2)))
	r.row("Fig. 8", "cxl-zswap p99", "1.14–1.26×", fmt.Sprintf("%.2f×", norm(zw, 3)))
	r.row("Fig. 8", "cpu-ksm p99", "4.5–7.6×", fmt.Sprintf("%.1f×", norm(km, 0)))
	r.row("Fig. 8", "pcie-rdma-ksm p99", "1.17–1.32×", fmt.Sprintf("%.2f×", norm(km, 1)))
	r.row("Fig. 8", "pcie-dma-ksm p99", "1.16–1.35×", fmt.Sprintf("%.2f×", norm(km, 2)))
	r.row("Fig. 8", "cxl-ksm p99", "1.16–1.30×", fmt.Sprintf("%.2f×", norm(km, 3)))
}
