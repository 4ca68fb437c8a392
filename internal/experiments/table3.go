package experiments

import (
	"io"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/runner"
)

// Table3Row is one cell row of Table III: the HMC and LLC cache-line states
// observed after issuing one D2H request against one initial placement.
type Table3Row struct {
	Req      cxl.D2HReq
	Initial  string // "HMC hit", "LLC hit", "LLC miss"
	HMCState cache.State
	LLCState cache.State
}

// Table3Jobs reproduces Table III by driving every D2H request type against
// every initial placement on a live system and reading the resulting
// coherence states back (the paper's cross-validation methodology): one
// self-contained job per request type, each covering all three initial
// placements, in presentation order.
func Table3Jobs() []runner.Job {
	reqs := []cxl.D2HReq{cxl.NCP, cxl.NCRead, cxl.NCWrite, cxl.CORead, cxl.COWrite, cxl.CSRead}
	var jobs []runner.Job
	for _, req := range reqs {
		req := req
		jobs = append(jobs, sliceJob("table3/"+req.String(), 3,
			func() []Table3Row { return table3Req(req) }))
	}
	return jobs
}

// table3Req drives one request type against every initial placement.
func table3Req(req cxl.D2HReq) []Table3Row {
	var rows []Table3Row
	for _, initial := range []string{"HMC hit", "LLC hit", "LLC miss"} {
		r := NewRig(cxl.Type2)
		addr := r.hostLine(1)
		r.Host.Store().WriteLine(addr, make([]byte, phys.LineSize))
		switch initial {
		case "HMC hit":
			// CS-read warms HMC; the methodology then flushes the LLC
			// copy the warm-up may have created (§V).
			r.Dev.D2H(cxl.CSRead, addr, nil, 0)
			r.Host.LLC().Invalidate(addr)
		case "LLC hit":
			r.Host.Core(0).CLDemote(addr, cache.Exclusive, nil, 0)
		case "LLC miss":
		}
		r.Dev.D2H(req, addr, make([]byte, phys.LineSize), 0)
		row := Table3Row{Req: req, Initial: initial}
		if l := r.Dev.HMC().Peek(addr); l.Valid() {
			row.HMCState = l.State
		}
		if l := r.Host.LLC().Peek(addr); l.Valid() {
			row.LLCState = l.State
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTable3 renders the matrix like the paper's Table III.
func PrintTable3(w io.Writer, rows []Table3Row) {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Req.String(), r.Initial, r.HMCState.String(), r.LLCState.String(),
		})
	}
	printTable(w, "Table III — cache coherence states after a D2H memory access",
		[]string{"request", "initial", "HMC line", "LLC line"}, table)
}
