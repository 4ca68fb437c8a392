package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cxl"
	"repro/internal/pcie"
	"repro/internal/phys"
	"repro/internal/sim"
)

// fig6FreshRig is the per-size oracle for Fig. 6: one fresh rig per
// (curve, size) point, each transfer issued whole from time zero.
func fig6FreshRig(mech Fig6Mechanism, d2h bool, size int) sim.Time {
	r := NewRig(cxl.Type2)
	core := r.Host.Core(0)
	ep := pcie.NewEndpoint(r.P)
	h2d := func(op cxl.HostOp) sim.Time {
		var last sim.Time
		for off := 0; off < size; off += phys.LineSize {
			last = max(last, core.Access(op, DevLine(off/phys.LineSize), nil, 0).Done)
		}
		return last
	}
	switch {
	case mech == MechCXLLd && d2h:
		return r.Dev.ReadHostBlock(cxl.NCRead, HostLine(0), size, nil, 0)
	case mech == MechCXLLd:
		return h2d(cxl.Ld)
	case mech == MechCXLSt && d2h:
		return r.Dev.WriteHostBlock(cxl.NCP, HostLine(0), nil, size, 0)
	case mech == MechCXLSt:
		return core.FenceCXL(h2d(cxl.NtSt))
	case mech == MechCXLDSA:
		_, done := r.Host.NewDSA().Copy(HostLine(0), DevLine(0), size, 0, false)
		return done
	case mech == MechPCIeMMIO && d2h:
		return ep.MMIORead(size, 0).Done
	case mech == MechPCIeMMIO:
		return ep.MMIOWrite(size, 0).Done
	case mech == MechPCIeDMA:
		return ep.DMATransfer(size, 0, false).Done
	case mech == MechPCIeRDMA && d2h:
		return ep.RDMAFollowOn(size, 0).Done
	case mech == MechPCIeRDMA:
		return ep.RDMATransfer(size, 0, pcie.H2D).Done
	case mech == MechPCIeDOCA && d2h:
		return ep.DOCATransfer(size, 0, pcie.D2H).Done
	case mech == MechPCIeDOCA:
		return ep.DOCATransfer(size, 0, pcie.H2D).Done
	}
	panic(fmt.Sprintf("no Fig. 6 oracle for %v", mech))
}

// TestFig6OnePassMatchesFreshRigs checks the one-pass sweep point by point
// against a fresh rig per size, with exact equality: the prefix rule in
// measureFig6Curve is an identity, not an approximation.
func TestFig6OnePassMatchesFreshRigs(t *testing.T) {
	rows := runRows[Fig6Row](Fig6Jobs())
	if want := 12 * len(Fig6Sizes()); len(rows) != want {
		t.Fatalf("%d Fig. 6 rows, want %d (12 curves × %d sizes)", len(rows), want, len(Fig6Sizes()))
	}
	for _, got := range rows {
		done := fig6FreshRig(got.Mech, got.D2H, got.Size)
		want := Fig6Row{
			Mech:         got.Mech,
			D2H:          got.D2H,
			Size:         got.Size,
			LatencyNs:    done.Nanoseconds(),
			BandwidthGBs: float64(got.Size) / done.Seconds() / 1e9,
		}
		if got != want {
			t.Errorf("%v d2h=%v %d B: one pass %.2f ns / %.3f GB/s, fresh rig %.2f ns / %.3f GB/s",
				got.Mech, got.D2H, got.Size, got.LatencyNs, got.BandwidthGBs, want.LatencyNs, want.BandwidthGBs)
		}
	}
}
