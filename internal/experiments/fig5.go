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

// Fig5Case selects the device-side placement for an H2D access.
type Fig5Case uint8

// Fig. 5 cases: Type-3 baseline, Type-2 with DMC miss, Type-2 with DMC hits
// in shared/owned/modified state, and the NC-P-pushed fast path.
const (
	CaseT3 Fig5Case = iota
	CaseT2Miss
	CaseT2Shared
	CaseT2Owned
	CaseT2Modified
	CaseT2Pushed // line pre-pushed into host LLC with NC-P (Insight 4)
)

// String names the case.
func (c Fig5Case) String() string {
	switch c {
	case CaseT3:
		return "T3/DMC-0"
	case CaseT2Miss:
		return "T2/DMC-0"
	case CaseT2Shared:
		return "T2/DMC-1(S)"
	case CaseT2Owned:
		return "T2/DMC-1(O)"
	case CaseT2Modified:
		return "T2/DMC-1(M)"
	case CaseT2Pushed:
		return "T2/NC-P→LLC"
	default:
		return fmt.Sprintf("Fig5Case(%d)", uint8(c))
	}
}

// Fig5Cases lists all cases in presentation order.
func Fig5Cases() []Fig5Case {
	return []Fig5Case{CaseT3, CaseT2Miss, CaseT2Shared, CaseT2Owned, CaseT2Modified, CaseT2Pushed}
}

// Fig5Row is one bar of Fig. 5.
type Fig5Row struct {
	Op           cxl.HostOp
	Case         Fig5Case
	LatencyNs    float64
	LatencyStd   float64
	BandwidthGBs float64
}

// Fig5Config tunes the experiment.
type Fig5Config struct {
	Reps  int
	Burst int
}

func (c *Fig5Config) setDefaults() {
	if c.Reps == 0 {
		c.Reps = 1000
	}
	if c.Burst == 0 {
		c.Burst = 16
	}
}

// Fig5Jobs measures H2D accesses (host core ld/nt-ld/st/nt-st to device
// memory) across device personalities and DMC states: one self-contained
// job per Fig. 5 cell, in presentation order.
func Fig5Jobs(cfg Fig5Config) []runner.Job {
	cfg.setDefaults()
	ops := cfg.Reps + cfg.Burst
	var jobs []runner.Job
	for _, op := range []cxl.HostOp{cxl.Ld, cxl.NtLd, cxl.St, cxl.NtSt} {
		for _, cs := range Fig5Cases() {
			op, cs := op, cs
			jobs = append(jobs, cellJob(fmt.Sprintf("fig5/%s/%s", op, cs), ops,
				func() Fig5Row { return measureH2D(op, cs, cfg) }))
		}
	}
	return jobs
}

func fig5Rig(cs Fig5Case) *Rig {
	if cs == CaseT3 {
		return NewRig(cxl.Type3)
	}
	return NewRig(cxl.Type2)
}

// primeFig5 sets up the device-side state for one access.
func primeFig5(r *Rig, cs Fig5Case, addr phys.Addr) {
	// The host must not have the line cached (except the pushed case).
	r.Host.LLC().Invalidate(addr)
	switch cs {
	case CaseT3, CaseT2Miss:
	case CaseT2Shared:
		r.Dev.SetDMCState(addr, cache.Shared, nil)
	case CaseT2Owned:
		r.Dev.SetDMCState(addr, cache.Owned, nil)
	case CaseT2Modified:
		r.Dev.SetDMCState(addr, cache.Modified, nil)
	case CaseT2Pushed:
		// The device pushes the line the host is about to access into host
		// LLC with NC-P.
		r.Dev.D2H(cxl.NCP, addr, nil, 0)
	}
}

func measureH2D(op cxl.HostOp, cs Fig5Case, cfg Fig5Config) Fig5Row {
	r := fig5Rig(cs)
	core := r.Host.Core(0)
	row := Fig5Row{Op: op, Case: cs}
	row.LatencyNs, row.LatencyStd, row.BandwidthGBs = Probe{
		Reps: cfg.Reps, Burst: cfg.Burst,
		Line:  r.devLine,
		Prime: func(addr phys.Addr) { primeFig5(r, cs, addr) },
		Reset: r.Host.ResetTiming,
		Access: func(addr phys.Addr) (sim.Time, sim.Time) {
			res := core.Access(op, addr, nil, 0)
			if op == cxl.NtSt {
				// A posted store's core-visible time is near zero; the
				// paper's latency for nt-st reflects the write landing at
				// the device, while bandwidth keeps posted semantics: the
				// core perceives the stores complete at the CXL
				// controller (§V-C).
				return res.Done, res.DeviceDone
			}
			return res.Done, res.Done
		},
	}.Run()
	return row
}

// PrintFig5 renders the rows.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Op.String(), r.Case.String(),
			fmtCell(r.LatencyNs), fmtCell(r.BandwidthGBs),
		})
	}
	printTable(w, "Fig. 5 — H2D accesses: CXL Type-2 vs Type-3, DMC states, NC-P push",
		[]string{"op", "case", "lat(ns)", "BW(GB/s)"}, table)
}

// Fig5Find locates a row.
func Fig5Find(rows []Fig5Row, op cxl.HostOp, cs Fig5Case) Fig5Row {
	for _, r := range rows {
		if r.Op == op && r.Case == cs {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no Fig5 row %v/%v", op, cs))
}
