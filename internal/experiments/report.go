package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/runner"
	"repro/internal/ycsb"
)

// Report is the paper-vs-measured comparison as one section: the
// registry's fig3–fig6 sections, Table IV and, with full, the Fig. 8
// co-simulations of workload A (a few seconds). It prints the paper's
// headline ratios, computed from fresh rows, next to the published
// numbers. The jobs depend only on full, so dist workers rebuild the
// identical list from the request alone.
func Report(full bool) Section {
	parts := reportParts(full)
	var jobs []runner.Job
	for _, p := range parts {
		jobs = append(jobs, p.Jobs...)
	}
	return Section{Name: "report", Jobs: jobs, Render: func(w io.Writer, results []runner.Result) error {
		// A partial run never masquerades as a report.
		if _, err := runner.Values(results); err != nil {
			return err
		}
		by := make(map[string][]runner.Result, len(parts))
		for _, p := range parts {
			by[p.Name], results = results[:len(p.Jobs)], results[len(p.Jobs):]
		}

		r := &reporter{w: w}
		r.printf("# cxl2sim reproduction report\n\n")
		r.printf("| experiment | relation | paper | measured |\n")
		r.printf("|---|---|---|---|\n")

		r.fig3(Rows[Fig3Row](by["fig3"]))
		r.fig4(Rows[Fig4Row](by["fig4"]))
		r.fig5(Rows[Fig5Row](by["fig5"]))
		r.fig6(Rows[Fig6Row](by["fig6"]))
		r.table4(Rows[Table4Row](by["table4"]))
		if full {
			r.fig8(Fig8Rows(by["fig8"]))
		}
		return r.err
	}}
}

// reportParts lists the report's parts in render order. Each part is named
// after the group of its job IDs (the ID prefix before the first '/'), so
// per-job stats group the report's jobs by the experiment they belong to.
func reportParts(full bool) []Section {
	var parts []Section
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6"} {
		sec, _ := Lookup(name, SectionOptions{})
		parts = append(parts, sec)
	}
	parts = append(parts, Section{Name: "table4", Jobs: Table4Jobs()})
	if full {
		a := []ycsb.Workload{ycsb.A}
		fig8 := append(Fig8Jobs("zswap", a, Fig8Config{}), Fig8Jobs("ksm", a, Fig8Config{})...)
		parts = append(parts, Section{Name: "fig8", Jobs: fig8})
	}
	return parts
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

func (r *reporter) fig3(rows []Fig3Row) {
	f := func(lbl string, tr, llc bool) Fig3Row {
		return Fig3Find(rows, lbl, tr, llc)
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

func (r *reporter) fig4(rows []Fig4Row) {
	for _, wr := range []string{"NC-wr", "CO-wr"} {
		hb := Fig4Find(rows, wr, false, true, false)
		db := Fig4Find(rows, wr, false, true, true)
		r.row("Fig. 4", wr+" DMC-1 latency, device-bias lower", "~60 %",
			fmt.Sprintf("%.0f %%", 100*(hb.LatencyNs-db.LatencyNs)/hb.LatencyNs))
		r.row("Fig. 4", wr+" DMC-1 bandwidth, device-bias higher", "8–13 %",
			pct(db.BandwidthGBs, hb.BandwidthGBs))
	}
}

func (r *reporter) fig5(rows []Fig5Row) {
	ld2 := Fig5Find(rows, cxl.Ld, CaseT2Miss)
	ld3 := Fig5Find(rows, cxl.Ld, CaseT3)
	r.row("Fig. 5", "ld latency, T2 vs T3", "+5 %", pct(ld2.LatencyNs, ld3.LatencyNs))
	owned := Fig5Find(rows, cxl.Ld, CaseT2Owned)
	r.row("Fig. 5", "ld latency, DMC-1(owned) vs DMC-0", "+11 %", pct(owned.LatencyNs, ld2.LatencyNs))
	mod := Fig5Find(rows, cxl.Ld, CaseT2Modified)
	r.row("Fig. 5", "ld latency, DMC-1(modified) vs DMC-0", "+36–40 %", pct(mod.LatencyNs, ld2.LatencyNs))
	push := Fig5Find(rows, cxl.Ld, CaseT2Pushed)
	r.row("Fig. 5", "ld latency after NC-P push", "−82–87 %", pct(push.LatencyNs, ld2.LatencyNs))
}

func (r *reporter) fig6(rows []Fig6Row) {
	st := Fig6Find(rows, MechCXLSt, false, 256)
	for _, m := range []struct {
		mech  Fig6Mechanism
		paper string
	}{
		{MechPCIeMMIO, "−83 %"},
		{MechPCIeDMA, "−72 %"},
		{MechPCIeRDMA, "−81 %"},
		{MechPCIeDOCA, "−92 %"},
	} {
		o := Fig6Find(rows, m.mech, false, 256)
		r.row("Fig. 6", "CXL-ST vs "+m.mech.String()+" (256 B H2D)", m.paper, pct(st.LatencyNs, o.LatencyNs))
	}
	c := Fig6Find(rows, MechCXLLd, true, 4096)
	rd := Fig6Find(rows, MechPCIeRDMA, true, 4096)
	r.row("Fig. 6", "D2H CXL-LD vs RDMA latency (4 KB)", "~3× lower",
		fmt.Sprintf("%.1f× lower", rd.LatencyNs/c.LatencyNs))
}

func (r *reporter) table4(rows []Table4Row) {
	cxlT := Table4Find(rows, "cxl-zswap").Total
	rdma := Table4Find(rows, "pcie-rdma-zswap").Total
	dma := Table4Find(rows, "pcie-dma-zswap").Total
	r.row("Table IV", "totals (rdma / dma / cxl, µs)", "10.9 / 6.2 / 3.9",
		fmt.Sprintf("%.1f / %.1f / %.1f", rdma, dma, cxlT))
	r.row("Table IV", "cxl vs rdma", "−64 %", pct(cxlT, rdma))
	r.row("Table IV", "cxl vs dma", "−37 %", pct(cxlT, dma))
}

func (r *reporter) fig8(rows []Fig8Row) {
	norm := func(feature string, v Fig8Variant) float64 {
		return fig8Find(rows, feature, v, ycsb.A).NormP99
	}
	r.row("Fig. 8", "cpu-zswap p99", "5.1–10.3×", fmt.Sprintf("%.1f×", norm("zswap", 0)))
	r.row("Fig. 8", "pcie-rdma-zswap p99", "1.29–1.49×", fmt.Sprintf("%.2f×", norm("zswap", 1)))
	r.row("Fig. 8", "pcie-dma-zswap p99", "1.18–1.93×", fmt.Sprintf("%.2f×", norm("zswap", 2)))
	r.row("Fig. 8", "cxl-zswap p99", "1.14–1.26×", fmt.Sprintf("%.2f×", norm("zswap", 3)))
	r.row("Fig. 8", "cpu-ksm p99", "4.5–7.6×", fmt.Sprintf("%.1f×", norm("ksm", 0)))
	r.row("Fig. 8", "pcie-rdma-ksm p99", "1.17–1.32×", fmt.Sprintf("%.2f×", norm("ksm", 1)))
	r.row("Fig. 8", "pcie-dma-ksm p99", "1.16–1.35×", fmt.Sprintf("%.2f×", norm("ksm", 2)))
	r.row("Fig. 8", "cxl-ksm p99", "1.16–1.30×", fmt.Sprintf("%.2f×", norm("ksm", 3)))
}
