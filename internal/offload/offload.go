// Package offload implements the kernel-feature acceleration backends the
// paper compares (§VI–VII): for both zswap and ksm, the data-plane
// functions can run on the host CPU (cpu-*), on a BlueField-3-class SNIC
// over RDMA (pcie-rdma-*), on the FPGA over PCIe DMA (pcie-dma-*), or on
// the CXL Type-2 device (cxl-*) using the Fig. 7 workflow: nt-st doorbells
// into a shared device-memory mailbox, D2H NC-read page pulls pipelined
// with the accelerator IPs, D2D NC-writes into a device-memory zpool, and
// NC-P pushes of results straight into host LLC.
package offload

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Variant selects where the data-plane functions execute.
type Variant uint8

// Backend variants, in the paper's naming.
const (
	CPU Variant = iota
	PCIeRDMA
	PCIeDMA
	CXL
)

// String names the variant with the paper's prefixes.
func (v Variant) String() string {
	switch v {
	case CPU:
		return "cpu"
	case PCIeRDMA:
		return "pcie-rdma"
	case PCIeDMA:
		return "pcie-dma"
	case CXL:
		return "cxl"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Platform bundles the hardware a backend runs on.
type Platform struct {
	P    *timing.Params
	Host *host.Host
	Dev  *device.Device
	EP   *pcie.Endpoint
	// MailboxAddr is the shared doorbell region in device memory (Fig. 7
	// step 1).
	MailboxAddr phys.Addr
}

// NewPlatform wires a platform over an existing host+device pair.
func NewPlatform(h *host.Host) *Platform {
	if h.Dev == nil {
		panic("offload: host has no attached device")
	}
	return &Platform{
		P:           h.Params(),
		Host:        h,
		Dev:         h.Dev,
		EP:          pcie.NewEndpoint(h.Params()),
		MailboxAddr: mem.RegionDevice.Base, // first lines of device memory
	}
}

// doorbell models Fig. 7 step ①+②: the host nt-sts the source/destination
// addresses into the shared device-memory mailbox (cheap, cache-bypassing),
// and the device observes them through its D2D CS-read polling loop.
// It returns when the device has the command, and the host-CPU time spent.
func (pl *Platform) doorbell(now sim.Time) (deviceHas sim.Time, hostCPU sim.Time) {
	p := pl.P
	// Two 64-byte mailbox lines (addresses + opcode) posted with nt-st.
	hostCPU = 2*p.Host.NTStoreEgressGap + p.Host.IssueGap
	arrive := now + hostCPU + p.CXL.OneWay + p.CXL.MemProc
	// Expected polling delay: half the poll gap, then a D2D CS-read of the
	// mailbox line (DMC is kept warm by the polling loop; the fresh write
	// invalidated it, so the device re-reads device memory).
	poll := p.Device.DoorbellPollGap/2 + p.Device.LSUIssue + p.Device.DCOHLookup +
		p.Device.DevMemCtrl + p.DRAM.DDR4Read
	return arrive + poll, hostCPU
}

// resultPoll models Fig. 7 step ⑥: the device NC-Ps the result into host
// LLC and the woken host reads it at LLC-hit latency.
func (pl *Platform) resultPoll() (latency, hostCPU sim.Time) {
	p := pl.P
	c := p.Host.LocalLookup + p.Host.LLCHit
	return c, c
}
