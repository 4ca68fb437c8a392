package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/lzc"
	"repro/internal/offload"
	"repro/internal/phys"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/zswap"
)

// Table4Row is one row of Table IV: the offloading-latency breakdown of
// zswap's compression function on one backend, in microseconds.
type Table4Row struct {
	Backend    string
	TransferIn float64 // step 2: page to the compute engine
	Compute    float64 // step 4: compression
	StoreOut   float64 // step 5: compressed page into the zpool
	Total      float64
	Pipelined  bool // cxl reports only Total (steps overlap), like the paper
}

// Table4Jobs measures the compression-offload latency breakdown for the
// pcie-rdma, pcie-dma and cxl backends over a representative 4 KB page:
// one self-contained job per backend. Each builds its
// own host + platform; the representative page always comes from the
// calibration constant SeedTable4Page (its content is part of the
// calibration), not the job's derived seed.
func Table4Jobs() []runner.Job {
	var jobs []runner.Job
	for _, v := range []offload.Variant{offload.PCIeRDMA, offload.PCIeDMA, offload.CXL} {
		v := v
		jobs = append(jobs, cellJob("table4/"+v.String(),
			func() Table4Row { return table4Backend(v) }))
	}
	return jobs
}

func table4Backend(v offload.Variant) Table4Row {
	h := NewRig(cxl.Type2).Host
	pl := offload.NewPlatform(h)
	page := lzc.SyntheticPage(rng.New(SeedTable4Page), phys.PageSize, 0.7)
	src := phys.Addr(0x40000)
	h.Store().Write(src, page)
	b := offload.NewZswapBackend(v, pl)
	res := b.Store(page, src, 0, 0)
	return breakdownRow(b.Name(), res.Breakdown)
}

func breakdownRow(name string, b zswap.Breakdown) Table4Row {
	us := func(t float64) float64 { return t / 1000 }
	return Table4Row{
		Backend:    name,
		TransferIn: us(b.TransferIn.Nanoseconds()),
		Compute:    us(b.Compute.Nanoseconds()),
		StoreOut:   us(b.StoreOut.Nanoseconds()),
		Total:      us(b.Total.Nanoseconds()),
		Pipelined:  b.Pipelined,
	}
}

// PrintTable4 renders the rows like the paper's Table IV.
func PrintTable4(w io.Writer, rows []Table4Row) {
	var table [][]string
	for _, r := range rows {
		in, cp, out := fmtCell(r.TransferIn), fmtCell(r.Compute), fmtCell(r.StoreOut)
		if r.Pipelined {
			in, cp, out = "     (pipe)", "     (pipe)", "     (pipe)"
		}
		table = append(table, []string{r.Backend, in, cp, out, fmtCell(r.Total)})
	}
	printTable(w, "Table IV — zswap compression offload latency breakdown (µs)",
		[]string{"backend", "transfer-in", "compute", "store-out", "total"}, table)
}

// Table4Find locates a row by backend name.
func Table4Find(rows []Table4Row, name string) Table4Row {
	for _, r := range rows {
		if r.Backend == name {
			return r
		}
	}
	panic("experiments: no Table4 row " + name)
}

// WriteQueueRow is one point of the §V-A write-queue sweep: bandwidth of a
// D2H write burst versus burst length, showing the queue-capacity knee and
// the CO-wr/st crossover beyond 16 accesses.
type WriteQueueRow struct {
	Label  string
	N      int
	BWGBs  float64
	IsTrue bool
}

// WriteQueueSweepJobs measures st / nt-st (emulated) and CO-wr / NC-wr
// (true CXL) write bandwidth over growing burst lengths, all against
// LLC-miss lines: one self-contained job per burst length, each measuring
// all four access kinds, in sweep order. nil uses the default burst
// ladder.
func WriteQueueSweepJobs(ns []int) []runner.Job {
	if len(ns) == 0 {
		ns = []int{16, 32, 64, 128, 256, 512, 1024}
	}
	var jobs []runner.Job
	for _, n := range ns {
		n := n
		jobs = append(jobs, sliceJob(fmt.Sprintf("wqsweep/N%d", n),
			func() []WriteQueueRow { return writeQueuePoint(n) }))
	}
	return jobs
}

// writeQueuePoint measures all four access kinds at one burst length,
// each on a fresh rig.
func writeQueuePoint(n int) []WriteQueueRow {
	burst := func(label string, isTrue bool, write func(r *Rig, a phys.Addr) sim.Time) WriteQueueRow {
		r := NewRig(cxl.Type2)
		var last sim.Time
		for i := 0; i < n; i++ {
			last = max(last, write(r, HostLine(i)))
		}
		return WriteQueueRow{Label: label, N: n, IsTrue: isTrue,
			BWGBs: float64(n*phys.LineSize) / last.Seconds() / 1e9}
	}
	var rows []WriteQueueRow
	for _, req := range []cxl.D2HReq{cxl.COWrite, cxl.NCWrite} {
		rows = append(rows, burst(req.String(), true,
			func(r *Rig, a phys.Addr) sim.Time { return r.Dev.D2H(req, a, nil, 0).Done }))
	}
	for _, op := range []cxl.HostOp{cxl.St, cxl.NtSt} {
		rows = append(rows, burst(op.String(), false,
			func(r *Rig, a phys.Addr) sim.Time { return r.Emu.D2H(op, a, 0) }))
	}
	return rows
}

// PrintWriteQueueSweep renders the sweep.
func PrintWriteQueueSweep(w io.Writer, rows []WriteQueueRow) {
	var table [][]string
	for _, r := range rows {
		kind := "emulated"
		if r.IsTrue {
			kind = "true-CXL"
		}
		table = append(table, []string{r.Label, kind, fmt.Sprintf("%d", r.N), fmtCell(r.BWGBs)})
	}
	printTable(w, "§V-A — write bandwidth vs burst length (write-queue effect)",
		[]string{"access", "kind", "N", "BW(GB/s)"}, table)
}

// FindWriteQueueRow locates a sweep point.
func FindWriteQueueRow(rows []WriteQueueRow, label string, n int) WriteQueueRow {
	for _, r := range rows {
		if r.Label == label && r.N == n {
			return r
		}
	}
	panic("experiments: no sweep row " + label)
}
