package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/pcie"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
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
		dir := "H2D"
		if d2h {
			dir = "D2H"
		}
		for _, mech := range Fig6Mechanisms() {
			if d2h && mech == MechPCIeDMA {
				continue // Agilex-7 lacks a D2H DMA IP (§V-D)
			}
			if d2h && mech == MechCXLDSA {
				continue // DSA is a host-side engine
			}
			mech, d2h := mech, d2h
			jobs = append(jobs, sliceJob(fmt.Sprintf("fig6/%s/%s", dir, mech), len(Fig6Sizes()),
				func() []Fig6Row {
					var rows []Fig6Row
					for _, size := range Fig6Sizes() {
						rows = append(rows, measureFig6(mech, d2h, size))
					}
					return rows
				}))
		}
	}
	return jobs
}

func measureFig6(mech Fig6Mechanism, d2h bool, size int) Fig6Row {
	r := NewRig(cxl.Type2)
	ep := pcie.NewEndpoint(r.P)
	var done sim.Time
	switch mech {
	case MechCXLLd:
		if d2h {
			done = measureCXLD2HRead(r, size)
		} else {
			done = measureCXLH2DLoad(r, size)
		}
	case MechCXLSt:
		if d2h {
			done = measureCXLD2HPush(r, size)
		} else {
			done = measureCXLH2DStore(r, size)
		}
	case MechCXLDSA:
		dsa := r.Host.NewDSA()
		_, done = dsa.Copy(r.hostLine(0), r.devLine(0), size, 0, false)
	case MechPCIeMMIO:
		if d2h {
			// The device reads host memory through its PCIe requester: same
			// serialized word-at-a-time behavior.
			done = ep.MMIORead(size, 0).Done
		} else {
			done = ep.MMIOWrite(size, 0).Done
		}
	case MechPCIeDMA:
		done = ep.DMATransfer(size, 0, false).Done
	case MechPCIeRDMA:
		if d2h {
			// The raw D2H RDMA curve: a NIC-driven read without per-op Arm
			// software orchestration (that overhead belongs to the offload
			// workflows of Table IV).
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
	return Fig6Row{
		Mech:         mech,
		D2H:          d2h,
		Size:         size,
		LatencyNs:    done.Nanoseconds(),
		BandwidthGBs: float64(size) / done.Seconds() / 1e9,
	}
}

// measureCXLH2DStore times a host-initiated block write with nt-st (write
// combining) followed by a fence — the H2D CXL-ST curve.
func measureCXLH2DStore(r *Rig, size int) sim.Time {
	core := r.Host.Core(0)
	var last sim.Time
	for off := 0; off < size; off += phys.LineSize {
		res := core.Access(cxl.NtSt, r.devLine(off/phys.LineSize), nil, 0)
		if res.Done > last {
			last = res.Done
		}
	}
	return core.FenceCXL(last)
}

// measureCXLH2DLoad times a host-initiated block read with demand loads —
// the H2D CXL-LD curve, which the limited LD queue makes the slowest CXL
// option beyond ~1 KB (the bottleneck CXL-DSA addresses, §V-D).
func measureCXLH2DLoad(r *Rig, size int) sim.Time {
	core := r.Host.Core(0)
	var last sim.Time
	for off := 0; off < size; off += phys.LineSize {
		res := core.Access(cxl.Ld, r.devLine(off/phys.LineSize), nil, 0)
		if res.Done > last {
			last = res.Done
		}
	}
	return last
}

// measureCXLD2HRead times a device-initiated block read of host memory with
// NC-read — the D2H CXL-LD curve (what cxl-zswap uses for its page pull).
func measureCXLD2HRead(r *Rig, size int) sim.Time {
	return r.Dev.ReadHostBlock(cxl.NCRead, r.hostLine(0), size, nil, 0)
}

// measureCXLD2HPush times a device-initiated block write into host LLC with
// NC-P — the D2H CXL-ST curve (the paper uses NC-P because DMA/RDMA write
// to host LLC via DDIO, §V-D).
func measureCXLD2HPush(r *Rig, size int) sim.Time {
	return r.Dev.WriteHostBlock(cxl.NCP, r.hostLine(0), nil, size, 0)
}

// PrintFig6 renders the rows.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	var table [][]string
	for _, r := range rows {
		dir := "H2D"
		if r.D2H {
			dir = "D2H"
		}
		table = append(table, []string{
			r.Mech.String(), dir, fmt.Sprintf("%d", r.Size),
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
		dir := "H2D"
		if r.D2H {
			dir = "D2H"
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.2f,%.3f\n",
			r.Mech, dir, r.Size, r.LatencyNs, r.BandwidthGBs); err != nil {
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
