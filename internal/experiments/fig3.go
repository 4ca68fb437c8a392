package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Fig3Row is one bar of Fig. 3: the latency and bandwidth of one D2H access
// type (true CXL or UPI-emulated) against one LLC placement.
type Fig3Row struct {
	// Label is the access name: NC-rd / CS-rd / NC-wr / CO-wr for true
	// D2H, nt-ld / ld / nt-st / st for emulated.
	Label string
	// True marks CXL Type-2 rows; false marks UPI-emulated rows.
	True bool
	// LLCHit is the LLC-1 (true) / LLC-0 (false) case.
	LLCHit bool
	// LatencyNs is the single-access latency. LatencyStd is always 0:
	// the model is deterministic, so the paper's standard deviation across
	// repetitions is 0 and Probe measures once. It stays because the
	// printed stdev column and the section JSON carry it.
	LatencyNs, LatencyStd float64
	// BandwidthGBs is the measured bandwidth of AccessesPerBurst
	// back-to-back accesses.
	BandwidthGBs float64
}

// trueD2HOps pairs the paper's D2H hints with their emulated host ops.
var trueD2HOps = []struct {
	req cxl.D2HReq
	op  cxl.HostOp
}{
	{cxl.NCRead, cxl.NtLd},
	{cxl.CSRead, cxl.Ld},
	{cxl.NCWrite, cxl.NtSt},
	{cxl.COWrite, cxl.St},
}

// Fig3Jobs measures the latency and bandwidth of true and emulated D2H
// accesses (Fig. 3 of the paper): NC-rd/CS-rd/NC-wr/CO-wr issued by the
// device LSU versus nt-ld/ld/nt-st/st issued by a remote-socket core, each
// against LLC-resident (LLC-1) and LLC-absent (LLC-0) lines. It returns one
// self-contained job per cell, in presentation order; each job builds its
// own rig, so jobs are shared-nothing.
func Fig3Jobs() []runner.Job {
	var jobs []runner.Job
	for _, llcHit := range []bool{true, false} {
		llc := "LLC-0"
		if llcHit {
			llc = "LLC-1"
		}
		for _, pair := range trueD2HOps {
			req, op, hit := pair.req, pair.op, llcHit
			jobs = append(jobs,
				cellJob(fmt.Sprintf("fig3/%s/%s", llc, req),
					func() Fig3Row { return measureTrueD2H(req, hit) }),
				cellJob(fmt.Sprintf("fig3/%s/%s", llc, op),
					func() Fig3Row { return measureEmuD2H(op, hit) }))
		}
	}
	return jobs
}

// primeLLC installs (or ensures the absence of) the target line in LLC,
// following the paper's CLDEMOTE methodology.
func primeLLC(r *Rig, addr phys.Addr, hit bool) {
	core := r.Host.Core(0)
	if hit {
		core.CLDemote(addr, cache.Exclusive, nil, 0)
	} else {
		core.CLFlush(addr, 0)
	}
}

func measureTrueD2H(req cxl.D2HReq, llcHit bool) Fig3Row {
	r := NewRig(cxl.Type2)
	row := Fig3Row{Label: req.String(), True: true, LLCHit: llcHit}
	row.LatencyNs, row.BandwidthGBs = Probe{
		Burst: PaperBurst,
		Line:  HostLine,
		Prime: func(addr phys.Addr) { primeLLC(r, addr, llcHit) },
		Reset: r.Host.ResetTiming,
		Access: func(addr phys.Addr) (sim.Time, sim.Time) {
			done := r.Dev.D2H(req, addr, nil, 0).Done
			return done, done
		},
	}.Run()
	return row
}

func measureEmuD2H(op cxl.HostOp, llcHit bool) Fig3Row {
	r := NewRig(cxl.Type2)
	row := Fig3Row{Label: op.String(), LLCHit: llcHit}
	row.LatencyNs, row.BandwidthGBs = Probe{
		Burst: PaperBurst,
		Line:  HostLine,
		Prime: func(addr phys.Addr) { primeLLC(r, addr, llcHit) },
		Reset: func() {
			r.Host.ResetTiming()
			r.Emu.ResetTiming()
		},
		Access: func(addr phys.Addr) (sim.Time, sim.Time) {
			done := r.Emu.D2H(op, addr, 0)
			return done, done
		},
	}.Run()
	return row
}

// printFig3 renders the rows like the paper's figure.
func printFig3(w io.Writer, rows []Fig3Row) {
	var table [][]string
	for _, r := range rows {
		kind := "emulated"
		if r.True {
			kind = "true-CXL"
		}
		llc := "LLC-0"
		if r.LLCHit {
			llc = "LLC-1"
		}
		table = append(table, []string{
			r.Label, kind, llc,
			fmtCell(r.LatencyNs), fmtCell(r.LatencyStd), fmtCell(r.BandwidthGBs),
		})
	}
	printTable(w, "Fig. 3 — D2H accesses: true CXL Type-2 vs UPI-emulated",
		[]string{"access", "kind", "LLC", "lat(ns)", "stdev", "BW(GB/s)"}, table)
}

// Fig3Find returns the row matching the given coordinates (helper for tests
// and reports).
func Fig3Find(rows []Fig3Row, label string, isTrue, llcHit bool) Fig3Row {
	for _, r := range rows {
		if r.Label == label && r.True == isTrue && r.LLCHit == llcHit {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no Fig3 row %q true=%v llc=%v", label, isTrue, llcHit))
}
