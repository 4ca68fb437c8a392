package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
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
	LatencyStd   float64 // always 0, as Fig3Row.LatencyStd
	BandwidthGBs float64
}

// fig4Burst is the bandwidth stream's length: D2D bandwidth is measured
// in steady state over a stream that still fits the 512-line DMC, so
// DMC-1 cases stay hits.
const fig4Burst = 480

// Fig4Jobs measures D2D accesses in host- and device-bias modes against
// DMC hits and misses, alongside the NUMA-emulated equivalents: one
// self-contained job per Fig. 4 cell, in presentation order.
func Fig4Jobs() []runner.Job {
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
				jobs = append(jobs, cellJob(fmt.Sprintf("fig4/%s/%s/%s", dmc, req, bias),
					func() Fig4Row { return measureD2D(req, hit, db) }))
			}
			jobs = append(jobs, cellJob(fmt.Sprintf("fig4/%s/%s", dmc, op),
				func() Fig4Row { return measureEmuD2D(op, hit) }))
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

// The Fig. 4 cells measure steady-state bandwidth: the first fig4Burst/8
// accesses fill the pipeline and are not counted (Probe.Warm).
func measureD2D(req cxl.D2HReq, dmcHit, devBias bool) Fig4Row {
	r := NewRig(cxl.Type2)
	if devBias {
		r.Dev.EnterDeviceBias(phys.Range{Base: DevLine(0) &^ 0xFFFFFFF, Size: 1 << 28}, 0)
	}
	row := Fig4Row{Label: req.String(), DMCHit: dmcHit, DeviceBias: devBias}
	row.LatencyNs, row.BandwidthGBs = Probe{
		Burst: fig4Burst, Warm: fig4Burst / 8,
		Line:  DevLine,
		Prime: func(addr phys.Addr) { primeDMC(r, addr, dmcHit) },
		Reset: r.Host.ResetTiming,
		Access: func(addr phys.Addr) (sim.Time, sim.Time) {
			done := r.Dev.D2D(req, addr, nil, 0).Done
			return done, done
		},
	}.Run()
	return row
}

// measureEmuD2D times the local core whose L1 stands in for DMC; its
// placement is a flag of the access, so lines are neither primed nor
// addressed.
func measureEmuD2D(op cxl.HostOp, dmcHit bool) Fig4Row {
	r := NewRig(cxl.Type2)
	row := Fig4Row{Label: op.String(), Emulated: true, DMCHit: dmcHit}
	row.LatencyNs, row.BandwidthGBs = Probe{
		Burst: fig4Burst, Warm: fig4Burst / 8,
		Line:  DevLine,
		Reset: r.Emu.ResetTiming,
		Access: func(phys.Addr) (sim.Time, sim.Time) {
			done := r.Emu.D2D(op, dmcHit, 0)
			return done, done
		},
	}.Run()
	return row
}

// printFig4 renders the rows.
func printFig4(w io.Writer, rows []Fig4Row) {
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
