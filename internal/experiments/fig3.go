package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
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
	// LatencyNs is the median single-access latency; LatencyStd its
	// standard deviation across repetitions.
	LatencyNs, LatencyStd float64
	// BandwidthGBs is the measured bandwidth of AccessesPerBurst
	// back-to-back accesses.
	BandwidthGBs float64
}

// Fig3Config tunes the experiment; zero values take the paper's settings.
type Fig3Config struct {
	// Reps is the repetition count (paper: >= 1000).
	Reps int
	// Burst is the number of back-to-back accesses in the bandwidth
	// measurement (paper: 16 × 64 B).
	Burst int
}

func (c *Fig3Config) setDefaults() {
	if c.Reps == 0 {
		c.Reps = 1000
	}
	if c.Burst == 0 {
		c.Burst = 16
	}
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
func Fig3Jobs(cfg Fig3Config) []runner.Job {
	cfg.setDefaults()
	var jobs []runner.Job
	for _, llcHit := range []bool{true, false} {
		llc := "LLC-0"
		if llcHit {
			llc = "LLC-1"
		}
		for _, pair := range trueD2HOps {
			req, op, hit := pair.req, pair.op, llcHit
			jobs = append(jobs,
				cellJob(fmt.Sprintf("fig3/%s/%s", llc, req), cfg.Reps+cfg.Burst,
					func(seed int64) Fig3Row { return measureTrueD2H(req, hit, cfg, seed) }),
				cellJob(fmt.Sprintf("fig3/%s/%s", llc, op), cfg.Reps+cfg.Burst,
					func(seed int64) Fig3Row { return measureEmuD2H(op, hit, cfg, seed) }))
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

func measureTrueD2H(req cxl.D2HReq, llcHit bool, cfg Fig3Config, seed int64) Fig3Row {
	r := NewRigSeeded(cxl.Type2, seed)
	lat := stats.NewSample(cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		addr := r.hostLine(rep)
		primeLLC(r, addr, llcHit)
		r.Host.ResetTiming()
		res := r.Dev.D2H(req, addr, nil, 0)
		lat.Add(res.Done.Nanoseconds())
	}
	// Bandwidth: Burst back-to-back accesses to fresh primed lines.
	base := cfg.Reps + 1
	for i := 0; i < cfg.Burst; i++ {
		primeLLC(r, r.hostLine(base+i), llcHit)
	}
	r.Host.ResetTiming()
	var last sim.Time
	for i := 0; i < cfg.Burst; i++ {
		res := r.Dev.D2H(req, r.hostLine(base+i), nil, 0)
		if res.Done > last {
			last = res.Done
		}
	}
	bw := float64(cfg.Burst*phys.LineSize) / last.Seconds() / 1e9
	return Fig3Row{
		Label:        req.String(),
		True:         true,
		LLCHit:       llcHit,
		LatencyNs:    lat.Median(),
		LatencyStd:   lat.StdDev(),
		BandwidthGBs: bw,
	}
}

func measureEmuD2H(op cxl.HostOp, llcHit bool, cfg Fig3Config, seed int64) Fig3Row {
	r := NewRigSeeded(cxl.Type2, seed)
	lat := stats.NewSample(cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		addr := r.hostLine(rep)
		primeLLC(r, addr, llcHit)
		r.Host.ResetTiming()
		r.Emu.ResetTiming()
		done := r.Emu.D2H(op, addr, 0)
		lat.Add(done.Nanoseconds())
	}
	base := cfg.Reps + 1
	for i := 0; i < cfg.Burst; i++ {
		primeLLC(r, r.hostLine(base+i), llcHit)
	}
	r.Host.ResetTiming()
	r.Emu.ResetTiming()
	var last sim.Time
	for i := 0; i < cfg.Burst; i++ {
		done := r.Emu.D2H(op, r.hostLine(base+i), 0)
		if done > last {
			last = done
		}
	}
	bw := float64(cfg.Burst*phys.LineSize) / last.Seconds() / 1e9
	return Fig3Row{
		Label:        op.String(),
		True:         false,
		LLCHit:       llcHit,
		LatencyNs:    lat.Median(),
		LatencyStd:   lat.StdDev(),
		BandwidthGBs: bw,
	}
}

// PrintFig3 renders the rows like the paper's figure.
func PrintFig3(w io.Writer, rows []Fig3Row) {
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
