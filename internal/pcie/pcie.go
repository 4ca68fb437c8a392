// Package pcie models the plain-PCIe host-device transfer mechanisms the
// paper compares CXL against (§V-D, Fig. 6): MMIO ld/st over PCIe, engine
// DMA with descriptor setup and completion signalling, RDMA on a
// BlueField-3-class SNIC, and DOCA-DMA. Each mechanism reports both its
// end-to-end latency and the host-CPU time it consumes — the latter is what
// makes the pcie-* kernel-feature backends interfere with co-running
// applications (§VII).
package pcie

import (
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Transfer describes one host-device transfer's outcome.
type Transfer struct {
	// Submit is when the initiating CPU is free again (descriptor posted /
	// last MMIO op retired).
	Submit sim.Time
	// Done is when the data is fully at its destination and the initiator
	// knows it (including completion signalling).
	Done sim.Time
	// HostCPU is the host-CPU busy time consumed by the transfer — the
	// interference currency of §VII.
	HostCPU sim.Time
}

// Dir is the transfer direction.
type Dir uint8

// Transfer directions.
const (
	H2D Dir = iota // host-initiated write toward the device (or read from it)
	D2H            // device-initiated access to host memory
)

// Endpoint models one PCIe device's transfer engines. Engines are
// serialized per device (one DMA engine, one NIC pipeline), so concurrent
// transfers queue.
type Endpoint struct {
	p    *timing.Params
	dma  *sim.Resource
	nic  *sim.Resource
	doca *sim.Resource
	mmio *sim.Resource
}

// NewEndpoint returns a PCIe device endpoint.
func NewEndpoint(p *timing.Params) *Endpoint {
	return &Endpoint{
		p:    p,
		dma:  sim.NewResource("pcie.dma"),
		nic:  sim.NewResource("pcie.nic"),
		doca: sim.NewResource("pcie.doca"),
		mmio: sim.NewResource("pcie.mmio"),
	}
}

// MMIORead performs a host uncacheable read of size bytes from device MMIO
// space. Each 64-byte word is a full serialized PCIe round trip (§II-A),
// and the CPU spins for the duration — which is why a 256 B read exceeds
// 4 µs.
func (e *Endpoint) MMIORead(size int, now sim.Time) Transfer {
	words := lines(size)
	t := now
	for i := 0; i < words; i++ {
		start := e.mmio.Claim(t, e.p.PCIe.MMIOReadRT)
		t = start + e.p.PCIe.MMIOReadRT
	}
	return Transfer{Submit: t, Done: t, HostCPU: t - now}
}

// MMIOWrite performs a host write-combining store stream of size bytes to
// device MMIO space. Writes are posted but PCIe's strict ordering allows
// only one in flight, so each 64-byte transfer costs a one-way trip.
func (e *Endpoint) MMIOWrite(size int, now sim.Time) Transfer {
	words := lines(size)
	t := now
	for i := 0; i < words; i++ {
		start := e.mmio.Claim(t, e.p.PCIe.MMIOWriteOneWay)
		t = start + e.p.PCIe.MMIOWriteOneWay
	}
	return Transfer{Submit: t, Done: t, HostCPU: t - now}
}

// DMATransfer performs an engine DMA of size bytes. The host pays the
// descriptor setup; the engine streams; completion costs either an
// interrupt (host CPU) or nothing extra if the caller polls elsewhere.
func (e *Endpoint) DMATransfer(size int, now sim.Time, interrupt bool) Transfer {
	submit := now + e.p.PCIe.DMASetup
	// The engine is pipelined: a transfer occupies the engine for its wire
	// time while the fixed engine latency overlaps with other transfers.
	occ := timing.Streaming(size, e.p.PCIe.DMABytesPerSec)
	start := e.dma.Claim(submit, occ)
	done := start + occ + e.p.PCIe.DMAEngine + e.p.PCIe.DMACompletion
	cpu := e.p.PCIe.DMASetup + e.p.PCIe.DMACompletion
	if interrupt {
		done += e.p.PCIe.InterruptCost
		cpu += e.p.PCIe.InterruptCost
	}
	return Transfer{Submit: submit, Done: done, HostCPU: cpu}
}

// RDMATransfer performs an RDMA read/write of size bytes through the SNIC.
// dir selects who initiates: D2H transfers are driven by the SNIC's Arm
// cores and pay their software overhead instead of host verb-post time.
func (e *Endpoint) RDMATransfer(size int, now sim.Time, dir Dir) Transfer {
	var submit sim.Time
	var cpu sim.Time
	if dir == H2D {
		submit = now + e.p.PCIe.RDMAPost
		cpu = e.p.PCIe.RDMAPost
	} else {
		submit = now + e.p.PCIe.RDMAArmOverhead
	}
	occ := timing.Streaming(size, e.p.PCIe.RDMABytesPerSec)
	start := e.nic.Claim(submit, occ)
	return Transfer{Submit: submit, Done: start + occ + e.p.PCIe.RDMANIC, HostCPU: cpu}
}

// RDMAFollowOn performs an RDMA transfer chained by software that already
// runs on the SNIC (no WQE post, no Arm wake-up): NIC pipeline + streaming
// only. The on-device offload loops use it for their second and later legs.
func (e *Endpoint) RDMAFollowOn(size int, now sim.Time) Transfer {
	occ := timing.Streaming(size, e.p.PCIe.RDMABytesPerSec)
	start := e.nic.Claim(now, occ)
	return Transfer{Submit: now, Done: start + occ + e.p.PCIe.RDMANIC}
}

// DOCATransfer performs a DOCA-DMA of size bytes — measurably slower than
// raw RDMA on the same card (§V-D).
func (e *Endpoint) DOCATransfer(size int, now sim.Time, dir Dir) Transfer {
	submit := now + e.p.PCIe.DOCASetup
	var cpu sim.Time
	if dir == H2D {
		cpu = e.p.PCIe.DOCASetup
	}
	occ := timing.Streaming(size, e.p.PCIe.DOCABytesPerSec)
	start := e.doca.Claim(submit, occ)
	return Transfer{Submit: submit, Done: start + occ + e.p.PCIe.DOCAEngine, HostCPU: cpu}
}

// Interrupt returns the host-CPU cost of taking one device interrupt (the
// pcie-* offload completion path, §VII).
func (e *Endpoint) Interrupt() sim.Time { return e.p.PCIe.InterruptCost }

// ResetTiming returns all engines to idle.
func (e *Endpoint) ResetTiming() {
	e.dma.Reset()
	e.nic.Reset()
	e.doca.Reset()
	e.mmio.Reset()
}

func lines(size int) int {
	n := size / phys.LineSize
	if size%phys.LineSize != 0 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}
