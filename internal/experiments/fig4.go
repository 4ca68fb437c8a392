package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig4Row is one bar of Fig. 4: D2D latency and bandwidth for one access
// type, DMC placement and bias mode — plus the emulated rows (a local core
// whose L1 stands in for DMC, §V-B).
type Fig4Row struct {
	Label        string
	Emulated     bool
	DMCHit       bool
	DeviceBias   bool
	LatencyNs    float64
	LatencyStd   float64
	BandwidthGBs float64
}

// Fig4Config tunes the experiment.
type Fig4Config struct {
	Reps  int
	Burst int
}

func (c *Fig4Config) setDefaults() {
	if c.Reps == 0 {
		c.Reps = 1000
	}
	if c.Burst == 0 {
		// D2D bandwidth is measured in steady state over a stream that
		// still fits the 512-line DMC, so DMC-1 cases stay hits.
		c.Burst = 480
	}
}

// Fig4Jobs measures D2D accesses in host- and device-bias modes against
// DMC hits and misses, alongside the NUMA-emulated equivalents: one
// self-contained job per Fig. 4 cell, in presentation order.
func Fig4Jobs(cfg Fig4Config) []runner.Job {
	cfg.setDefaults()
	ops := cfg.Reps + cfg.Burst
	var jobs []runner.Job
	for _, dmcHit := range []bool{true, false} {
		dmc := "DMC-0"
		if dmcHit {
			dmc = "DMC-1"
		}
		for _, pair := range trueD2HOps {
			req, op, hit := pair.req, pair.op, dmcHit
			for _, devBias := range []bool{false, true} {
				bias, db := "host-bias", devBias
				if devBias {
					bias = "device-bias"
				}
				jobs = append(jobs, cellJob(fmt.Sprintf("fig4/%s/%s/%s", dmc, req, bias), ops,
					func(seed int64) Fig4Row { return measureD2D(req, hit, db, cfg, seed) }))
			}
			jobs = append(jobs, cellJob(fmt.Sprintf("fig4/%s/%s", dmc, op), ops,
				func(seed int64) Fig4Row { return measureEmuD2D(op, hit, cfg, seed) }))
		}
	}
	return jobs
}

// primeDMC brings the target line into DMC in shared state (via a real
// CS-read, the paper's warm-up), or ensures its absence.
func primeDMC(r *Rig, addr phys.Addr, hit bool) {
	if hit {
		r.Dev.D2D(cxl.CSRead, addr, nil, 0)
	} else {
		r.Dev.DMC().Invalidate(addr)
	}
}

func measureD2D(req cxl.D2HReq, dmcHit, devBias bool, cfg Fig4Config, seed int64) Fig4Row {
	r := NewRigSeeded(cxl.Type2, seed)
	if devBias {
		r.Dev.EnterDeviceBias(phys.Range{Base: r.devLine(0) &^ 0xFFFFFFF, Size: 1 << 28}, 0)
	}
	lat := stats.NewSample(cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		addr := r.devLine(rep)
		primeDMC(r, addr, dmcHit)
		r.Host.ResetTiming()
		res := r.Dev.D2D(req, addr, nil, 0)
		lat.Add(res.Done.Nanoseconds())
	}
	base := cfg.Reps + 1
	for i := 0; i < cfg.Burst; i++ {
		primeDMC(r, r.devLine(base+i), dmcHit)
	}
	r.Host.ResetTiming()
	// Steady-state bandwidth: skip the pipeline-fill warm-up, then measure
	// the completion rate of the remaining stream.
	warm := cfg.Burst / 8
	var warmDone, last sim.Time
	for i := 0; i < cfg.Burst; i++ {
		res := r.Dev.D2D(req, r.devLine(base+i), nil, 0)
		if i == warm-1 {
			warmDone = res.Done
		}
		if res.Done > last {
			last = res.Done
		}
	}
	bw := float64((cfg.Burst-warm)*phys.LineSize) / (last - warmDone).Seconds() / 1e9
	return Fig4Row{
		Label:        req.String(),
		DMCHit:       dmcHit,
		DeviceBias:   devBias,
		LatencyNs:    lat.Median(),
		LatencyStd:   lat.StdDev(),
		BandwidthGBs: bw,
	}
}

func measureEmuD2D(op cxl.HostOp, dmcHit bool, cfg Fig4Config, seed int64) Fig4Row {
	r := NewRigSeeded(cxl.Type2, seed)
	lat := stats.NewSample(cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		r.Emu.ResetTiming()
		lat.Add(r.Emu.D2D(op, dmcHit, 0).Nanoseconds())
	}
	r.Emu.ResetTiming()
	warm := cfg.Burst / 8
	var warmDone, last sim.Time
	for i := 0; i < cfg.Burst; i++ {
		done := r.Emu.D2D(op, dmcHit, 0)
		if i == warm-1 {
			warmDone = done
		}
		if done > last {
			last = done
		}
	}
	bw := float64((cfg.Burst-warm)*phys.LineSize) / (last - warmDone).Seconds() / 1e9
	return Fig4Row{
		Label:        op.String(),
		Emulated:     true,
		DMCHit:       dmcHit,
		LatencyNs:    lat.Median(),
		LatencyStd:   lat.StdDev(),
		BandwidthGBs: bw,
	}
}

// PrintFig4 renders the rows.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	var table [][]string
	for _, r := range rows {
		kind := "true-CXL"
		bias := "host-bias"
		if r.Emulated {
			kind, bias = "emulated", "-"
		} else if r.DeviceBias {
			bias = "device-bias"
		}
		dmc := "DMC-0"
		if r.DMCHit {
			dmc = "DMC-1"
		}
		table = append(table, []string{
			r.Label, kind, bias, dmc,
			fmtCell(r.LatencyNs), fmtCell(r.BandwidthGBs),
		})
	}
	printTable(w, "Fig. 4 — D2D accesses: host-bias vs device-bias (and emulated)",
		[]string{"access", "kind", "bias", "DMC", "lat(ns)", "BW(GB/s)"}, table)
}

// Fig4Find locates a row.
func Fig4Find(rows []Fig4Row, label string, emulated, dmcHit, devBias bool) Fig4Row {
	for _, r := range rows {
		if r.Label == label && r.Emulated == emulated && r.DMCHit == dmcHit && (emulated || r.DeviceBias == devBias) {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no Fig4 row %q emu=%v dmc=%v bias=%v", label, emulated, dmcHit, devBias))
}
