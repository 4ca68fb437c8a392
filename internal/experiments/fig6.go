package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/pcie"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Fig6Mechanism is one curve of Fig. 6.
type Fig6Mechanism uint8

// The compared transfer mechanisms. CXL ld/st is split into its load and
// store curves, as the two sit on different host resources (LSQ credits vs
// posted write combining).
const (
	MechCXLLd Fig6Mechanism = iota
	MechCXLSt
	MechCXLDSA
	MechPCIeMMIO
	MechPCIeDMA
	MechPCIeRDMA
	MechPCIeDOCA
)

// String names the mechanism as the paper's legend does.
func (m Fig6Mechanism) String() string {
	switch m {
	case MechCXLLd:
		return "CXL-LD"
	case MechCXLSt:
		return "CXL-ST"
	case MechCXLDSA:
		return "CXL-DSA"
	case MechPCIeMMIO:
		return "PCIe-MMIO"
	case MechPCIeDMA:
		return "PCIe-DMA"
	case MechPCIeRDMA:
		return "PCIe-RDMA"
	case MechPCIeDOCA:
		return "PCIe-DOCA-DMA"
	default:
		return fmt.Sprintf("Fig6Mechanism(%d)", uint8(m))
	}
}

// Fig6Mechanisms lists the curves.
func Fig6Mechanisms() []Fig6Mechanism {
	return []Fig6Mechanism{MechCXLLd, MechCXLSt, MechCXLDSA, MechPCIeMMIO, MechPCIeDMA, MechPCIeRDMA, MechPCIeDOCA}
}

// Fig6Sizes are the swept transfer sizes.
func Fig6Sizes() []int {
	return []int{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}
}

// Fig6Row is one point of Fig. 6: latency and bandwidth of one mechanism at
// one transfer size, in one direction.
type Fig6Row struct {
	Mech         Fig6Mechanism
	D2H          bool // false = H2D
	Size         int
	LatencyNs    float64
	BandwidthGBs float64
}

// Fig6Jobs sweeps transfer sizes over every mechanism in both directions
// (PCIe-DMA is omitted for D2H, as on the real card, §V-D): one
// self-contained job per (mechanism, direction) curve, each sweeping all
// transfer sizes, in presentation order.
func Fig6Jobs() []runner.Job {
	var jobs []runner.Job
	for _, d2h := range []bool{false, true} {
		for _, mech := range Fig6Mechanisms() {
			if d2h && (mech == MechPCIeDMA || mech == MechCXLDSA) {
				continue // Agilex-7 lacks a D2H DMA IP (§V-D); DSA is a host-side engine
			}
			jobs = append(jobs, sliceJob(fmt.Sprintf("fig6/%s/%s", fig6Dir(d2h), mech),
				func() []Fig6Row { return measureFig6Curve(mech, d2h) }))
		}
	}
	return jobs
}

// measureFig6Curve measures one curve at every Fig6Sizes() point: a CXL
// curve on one rig (CXL-DSA with a fresh engine per size), a PCIe curve on
// a fresh endpoint per size. A CXL ld/st curve is one pass: the largest
// transfer runs once, in segments that end at each size, and each point is
// the running completion. That is exactly a fresh rig per size: every line
// issues at the same time (zero, plus the LSU setup in a D2H block) and
// the simulator handles lines in call order, so line k's completion
// depends only on the lines before it, and a size-s transfer is the first
// s/64 lines of the largest one.
func measureFig6Curve(mech Fig6Mechanism, d2h bool) []Fig6Row {
	var r *Rig
	if mech == MechCXLLd || mech == MechCXLSt || mech == MechCXLDSA {
		r = NewRig(cxl.Type2)
	}
	p := timing.Default()
	var sent int      // bytes of the CXL ld/st transfer issued so far
	var last sim.Time // and their latest completion
	var rows []Fig6Row
	for _, size := range Fig6Sizes() {
		ep := pcie.NewEndpoint(p) // a PCIe curve's fresh endpoint per size
		var done sim.Time
		switch mech {
		case MechCXLLd, MechCXLSt:
			last = max(last, cxlSegment(r, mech, d2h, sent, size))
			sent, done = size, last
			if mech == MechCXLSt && !d2h {
				done = r.Host.Core(0).FenceCXL(last) // drains the lines issued so far
			}
		case MechCXLDSA:
			_, done = r.Host.NewDSA().Copy(HostLine(0), DevLine(0), size, 0, false)
		case MechPCIeMMIO:
			if d2h {
				// The device reads host memory through its PCIe requester:
				// same serialized word-at-a-time behavior.
				done = ep.MMIORead(size, 0).Done
			} else {
				done = ep.MMIOWrite(size, 0).Done
			}
		case MechPCIeDMA:
			done = ep.DMATransfer(size, 0, false).Done
		case MechPCIeRDMA:
			if d2h {
				// The raw D2H RDMA curve: a NIC-driven read without per-op
				// Arm software orchestration (that overhead belongs to the
				// offload workflows of Table IV).
				done = ep.RDMAFollowOn(size, 0).Done
			} else {
				done = ep.RDMATransfer(size, 0, pcie.H2D).Done
			}
		case MechPCIeDOCA:
			dir := pcie.H2D
			if d2h {
				dir = pcie.D2H
			}
			done = ep.DOCATransfer(size, 0, dir).Done
		}
		rows = append(rows, Fig6Row{
			Mech:         mech,
			D2H:          d2h,
			Size:         size,
			LatencyNs:    done.Nanoseconds(),
			BandwidthGBs: float64(size) / done.Seconds() / 1e9,
		})
	}
	return rows
}

// cxlSegment issues bytes [from, to) of a CXL ld/st block transfer on r at
// time zero and returns their latest completion. H2D is host demand loads
// (CXL-LD: the LD queue bottlenecks it beyond ~1 KB, which CXL-DSA
// addresses, §V-D) or nt-st (CXL-ST, fenced by the caller) of device
// memory, one op per line. D2H is a device NC-read block of host memory
// (CXL-LD, cxl-zswap's page pull) or an NC-P block write into host LLC
// (CXL-ST: DMA/RDMA write to host LLC via DDIO, §V-D).
func cxlSegment(r *Rig, mech Fig6Mechanism, d2h bool, from, to int) sim.Time {
	switch {
	case d2h && mech == MechCXLLd:
		return r.Dev.ReadHostBlock(cxl.NCRead, HostLine(0)+phys.Addr(from), to-from, nil, 0)
	case d2h:
		return r.Dev.WriteHostBlock(cxl.NCP, HostLine(0)+phys.Addr(from), nil, to-from, 0)
	}
	op := cxl.Ld
	if mech == MechCXLSt {
		op = cxl.NtSt
	}
	var last sim.Time
	for off := from; off < to; off += phys.LineSize {
		last = max(last, r.Host.Core(0).Access(op, DevLine(off/phys.LineSize), nil, 0).Done)
	}
	return last
}

// fig6Dir names a transfer direction.
func fig6Dir(d2h bool) string {
	if d2h {
		return "D2H"
	}
	return "H2D"
}

// printFig6 renders the rows.
func printFig6(w io.Writer, rows []Fig6Row) {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Mech.String(), fig6Dir(r.D2H), fmt.Sprintf("%d", r.Size),
			fmtCell(r.LatencyNs), fmtCell(r.BandwidthGBs),
		})
	}
	printTable(w, "Fig. 6 — transfer efficiency: CXL vs PCIe mechanisms",
		[]string{"mechanism", "dir", "bytes", "lat(ns)", "BW(GB/s)"}, table)
}

// WriteFig6CSV renders the rows as CSV for external plotting.
func WriteFig6CSV(w io.Writer, rows []Fig6Row) error {
	if _, err := fmt.Fprintln(w, "mechanism,dir,bytes,latency_ns,bandwidth_gbs"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.2f,%.3f\n",
			r.Mech, fig6Dir(r.D2H), r.Size, r.LatencyNs, r.BandwidthGBs); err != nil {
			return err
		}
	}
	return nil
}

// Fig6Find locates a row.
func Fig6Find(rows []Fig6Row, mech Fig6Mechanism, d2h bool, size int) Fig6Row {
	for _, r := range rows {
		if r.Mech == mech && r.D2H == d2h && r.Size == size {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no Fig6 row %v d2h=%v size=%d", mech, d2h, size))
}
