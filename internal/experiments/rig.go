// Package experiments implements one driver per table and figure of the
// paper's evaluation (§V and §VII): each driver builds a fresh simulated
// system, follows the paper's methodology (state priming with CLDEMOTE/
// CLFLUSH and warm-up reads, >=1K repetitions, median + standard
// deviation), and returns structured rows that print like the paper's
// plots. The calibration tests in this package pin the headline ratios to
// the paper's numbers.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Rig is a freshly built system for one measurement.
type Rig struct {
	P    *timing.Params
	Host *host.Host
	Dev  *device.Device
	Emu  *host.EmuCore
}

// NewRig builds a rig with the given device personality (cxl.Type2 or
// cxl.Type3). A smaller-than-real LLC keeps rig construction cheap;
// capacity effects are not what the microbenchmarks measure.
//
// A rig is the compiled 1×1 topology preset: one host directly attached
// to one CXL device (fabric.OneToOne), the degenerate case of the same
// Build path that wires multi-host clusters.
func NewRig(devType cxl.DeviceType) *Rig {
	kind := fabric.Type2
	if devType == cxl.Type3 {
		kind = fabric.Type3
	}
	topo := fabric.OneToOne(kind, fabric.NodeSpec{LLCBytes: 8 << 20, LLCWays: 16, Cores: 8})
	f := fabric.MustBuild(topo, nil)
	h := f.Host("h0")
	return &Rig{P: f.Params(), Host: h, Dev: h.Dev, Emu: h.NewEmuCore()}
}

// Probe is the paper's §V measurement loop, shared by the Fig. 3–5 cells
// and the public System.Measure* API. Latency: Reps times, prime a fresh
// line, reset timing and time one access; the median and standard
// deviation are reported. Bandwidth: prime Burst more lines (starting at
// line Reps+1), reset timing once, then issue them back to back.
type Probe struct {
	Reps, Burst int
	// Warm excludes the first Warm burst completions from the bandwidth
	// (steady-state rate past the pipeline fill); 0 counts the whole
	// burst from time zero.
	Warm int
	// Line returns the i-th line of the address stream.
	Line func(i int) phys.Addr
	// Prime sets up the placement of one line before it is accessed; nil
	// means no priming.
	Prime func(addr phys.Addr)
	// Reset clears the timing state between repetitions.
	Reset func()
	// Access issues one access, returning its completion time (for
	// bandwidth) and the latency to record.
	Access func(addr phys.Addr) (done, latency sim.Time)
}

// Run executes the loop and returns the median latency and its standard
// deviation in ns, and the burst bandwidth in GB/s.
func (p Probe) Run() (medianNs, stdNs, gbs float64) {
	lat := stats.NewSample(p.Reps)
	for rep := 0; rep < p.Reps; rep++ {
		addr := p.Line(rep)
		if p.Prime != nil {
			p.Prime(addr)
		}
		p.Reset()
		_, l := p.Access(addr)
		lat.Add(l.Nanoseconds())
	}
	base := p.Reps + 1
	if p.Prime != nil {
		for i := 0; i < p.Burst; i++ {
			p.Prime(p.Line(base + i))
		}
	}
	p.Reset()
	var warmDone, last sim.Time
	for i := 0; i < p.Burst; i++ {
		done, _ := p.Access(p.Line(base + i))
		if i == p.Warm-1 {
			warmDone = done
		}
		if done > last {
			last = done
		}
	}
	gbs = float64((p.Burst-p.Warm)*phys.LineSize) / (last - warmDone).Seconds() / 1e9
	return lat.Median(), lat.StdDev(), gbs
}

// hostLine returns the i-th distinct host-memory line of a random-ish
// stream, line-aligned (the paper measures random accesses).
func (r *Rig) hostLine(i int) phys.Addr {
	// A large-stride permutation avoids set conflicts while staying
	// deterministic.
	return phys.Addr(0x100000) + phys.Addr((i*2654435761)%(1<<20))*phys.LineSize
}

// devLine returns the i-th device-memory line.
func (r *Rig) devLine(i int) phys.Addr {
	return mem.RegionDevice.Base + phys.Addr(1<<20) + phys.Addr((i*2654435761)%(1<<18))*phys.LineSize
}

// column formats a latency/bandwidth table cell.
func fmtCell(v float64) string { return fmt.Sprintf("%9.2f", v) }

// printTable writes a simple aligned table.
func printTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, h := range header {
		fmt.Fprintf(w, "%-17s", h)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		for _, c := range row {
			fmt.Fprintf(w, "%-17s", c)
		}
		fmt.Fprintln(w)
	}
}
