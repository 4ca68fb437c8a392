// Package experiments implements one driver per table and figure of the
// paper's evaluation (§V and §VII): each driver builds a fresh simulated
// system, follows the paper's methodology (state priming with CLDEMOTE/
// CLFLUSH and warm-up reads, one primed access per latency cell), and
// returns structured rows that print like the paper's plots. The
// calibration tests in this package pin the headline ratios to the
// paper's numbers.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Rig is a freshly built system for one measurement.
type Rig struct {
	P    *timing.Params
	Host *host.Host
	Dev  *device.Device
	Emu  *host.EmuCore
}

// NewRig builds a rig: one host with one directly attached CXL device of
// the given personality (cxl.Type2 or cxl.Type3), the paper's §V
// testbed. A smaller-than-real LLC keeps rig construction cheap;
// capacity effects are not what the microbenchmarks measure.
func NewRig(devType cxl.DeviceType) *Rig {
	p := timing.Default()
	h := host.MustNew(p, host.Config{LLCBytes: 8 << 20, LLCWays: 16, Cores: 8})
	if _, err := h.Attach(devType); err != nil {
		panic(err)
	}
	return &Rig{P: p, Host: h, Dev: h.Dev, Emu: h.NewEmuCore()}
}

// PaperReps is the paper's §V repetition count (>= 1000). Probe measures
// a cell once (see Probe); PaperReps survives only as the count
// System.Measure* echoes in Measurement.Reps when a request names none,
// because the /v1/measure wire format carries reps.
const PaperReps = 1000

// PaperBurst is the number of back-to-back accesses in a Fig. 3 or
// Fig. 5 bandwidth measurement (paper: 16 × 64 B), and System.Measure*'s
// default burst.
const PaperBurst = 16

// Probe is the paper's §V measurement, shared by the Fig. 3–5 cells and
// the public System.Measure* API. Latency: prime line 0, reset timing and
// time one access. The paper reports the median of >= 1000 such
// accesses; here each one primes a fresh line onto the same reset state,
// so all of them take the same time and one is the median. Bandwidth:
// prime lines 1..Burst, reset timing once, then issue them back to back.
type Probe struct {
	Burst int
	// Warm excludes the first Warm burst completions from the bandwidth
	// (steady-state rate past the pipeline fill); 0 counts the whole
	// burst from time zero.
	Warm int
	// Line returns the i-th line of the address stream.
	Line func(i int) phys.Addr
	// Prime sets up the placement of one line before it is accessed; nil
	// means no priming.
	Prime func(addr phys.Addr)
	// Reset clears the timing state before the latency access and before
	// the burst.
	Reset func()
	// Access issues one access, returning its completion time (for
	// bandwidth) and the latency to record.
	Access func(addr phys.Addr) (done, latency sim.Time)
}

// Run times the latency access and the burst, and returns the latency in
// ns and the burst bandwidth in GB/s.
func (p Probe) Run() (latencyNs, gbs float64) {
	p.prime(0)
	p.Reset()
	_, lat := p.Access(p.Line(0))
	for i := 1; i <= p.Burst; i++ {
		p.prime(i)
	}
	p.Reset()
	var warmDone, last sim.Time
	for i := 1; i <= p.Burst; i++ {
		done, _ := p.Access(p.Line(i))
		if i == p.Warm {
			warmDone = done
		}
		last = max(last, done)
	}
	gbs = float64((p.Burst-p.Warm)*phys.LineSize) / (last - warmDone).Seconds() / 1e9
	return lat.Nanoseconds(), gbs
}

// prime primes the i-th line of the stream, if the probe primes at all.
func (p Probe) prime(i int) {
	if p.Prime != nil {
		p.Prime(p.Line(i))
	}
}

// HostLine returns the i-th distinct host-memory line of a random-ish
// stream, line-aligned (the paper measures random accesses).
func HostLine(i int) phys.Addr {
	// A large-stride permutation avoids set conflicts while staying
	// deterministic.
	return phys.Addr(0x100000) + phys.Addr((i*2654435761)%(1<<20))*phys.LineSize
}

// DevLines is the period of the DevLine stream: its first DevLines lines
// are distinct, and then it repeats.
const DevLines = 1 << 18

// DevLine returns the i-th device-memory line.
func DevLine(i int) phys.Addr {
	return mem.RegionDevice.Base + phys.Addr(1<<20) + phys.Addr((i*2654435761)%DevLines)*phys.LineSize
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
