// Package cxl2sim is a simulation-based reproduction of "Demystifying a CXL
// Type-2 Device: A Heterogeneous Cooperative Computing Perspective"
// (MICRO 2024).
//
// It provides, in one coherent model:
//
//   - a transaction-level CXL Type-2 device (DCOH with host-memory and
//     device-memory caches, the NC-P/NC/CO/CS cache hints of Table III,
//     host-/device-bias modes) attachable to a dual-socket host model;
//   - the comparison substrates the paper measures against: a UPI-emulated
//     Type-2 device (remote NUMA node), a CXL Type-3 personality, and PCIe
//     MMIO/DMA/RDMA/DOCA transfer engines;
//   - functional Linux-kernel-feature models — zswap with a zbud pool and
//     ksm with real unstable/stable trees — whose data-plane functions run
//     on pluggable offload backends (cpu-*, pcie-rdma-*, pcie-dma-*,
//     cxl-*), moving and verifying real bytes end to end;
//   - drivers that regenerate every table and figure of the paper's
//     evaluation (Fig. 3–6, Fig. 8, Tables III–IV).
//
// The top-level API wraps the internal packages: build a System, issue
// D2H/D2D/H2D accesses, run kernel-feature co-simulations, or regenerate
// the paper's experiments wholesale. See DESIGN.md for the model inventory
// and EXPERIMENTS.md for paper-vs-measured results.
package cxl2sim

import (
	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/offload"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/ycsb"
)

// Re-exported core vocabulary.
type (
	// Time is a simulated timestamp/duration in picoseconds.
	Time = sim.Time
	// Addr is a physical address in the unified host+device space.
	Addr = phys.Addr
	// Params is the complete timing model; see DefaultParams.
	Params = timing.Params
	// D2HReq is a device-accelerator cache hint (NC-P / NC / CO / CS).
	D2HReq = cxl.D2HReq
	// HostOp is a host-CPU memory operation (ld / nt-ld / st / nt-st).
	HostOp = cxl.HostOp
	// DeviceType selects the device personality (Type2 or Type3).
	DeviceType = cxl.DeviceType
	// LineState is a cache-line coherence state (I/S/E/M/O).
	LineState = cache.State
	// BiasMode is a device-memory region's coherence mode.
	BiasMode = device.BiasMode
	// OffloadVariant selects where kernel-feature data planes execute.
	OffloadVariant = offload.Variant
	// Workload is a YCSB core workload (A–D).
	Workload = ycsb.Workload
)

// Re-exported constants.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond

	// D2H request hints (§IV-A, Table III).
	NCP     = cxl.NCP
	NCRead  = cxl.NCRead
	NCWrite = cxl.NCWrite
	CORead  = cxl.CORead
	COWrite = cxl.COWrite
	CSRead  = cxl.CSRead

	// Host memory operations.
	Ld   = cxl.Ld
	NtLd = cxl.NtLd
	St   = cxl.St
	NtSt = cxl.NtSt

	// Device personalities.
	Type2 = cxl.Type2
	Type3 = cxl.Type3

	// Cache-line coherence states.
	Invalid   = cache.Invalid
	Shared    = cache.Shared
	Exclusive = cache.Exclusive
	Modified  = cache.Modified
	Owned     = cache.Owned

	// Bias modes (§IV-B).
	HostBias   = device.HostBias
	DeviceBias = device.DeviceBias

	// Offload backends (§VI–VII).
	CPU      = offload.CPU
	PCIeRDMA = offload.PCIeRDMA
	PCIeDMA  = offload.PCIeDMA
	CXL      = offload.CXL

	// Line/page geometry.
	LineSize = phys.LineSize
	PageSize = phys.PageSize
)

// DeviceMemoryBase is the first address of the CXL device-memory window in
// the unified physical address space.
var DeviceMemoryBase = mem.RegionDevice.Base

// DefaultParams returns the calibrated timing model (see internal/timing).
func DefaultParams() *Params { return timing.Default() }

// LoadParams reads a (possibly partial) JSON parameter file over the
// calibrated defaults and validates the result — the recompile-free
// calibration workflow.
func LoadParams(path string) (*Params, error) { return timing.LoadFile(path) }

// SaveParams writes parameters as indented JSON.
func SaveParams(p *Params, path string) error { return p.SaveFile(path) }

// Config shapes a System.
type Config struct {
	// Params is the timing model; nil takes DefaultParams.
	Params *Params
	// DeviceType selects Type2 (default) or Type3.
	DeviceType DeviceType
	// LLCBytes/LLCWays shape the host LLC; zero takes the Table II values
	// (60 MB, 15-way). Use a smaller LLC for fast experimentation.
	LLCBytes, LLCWays int
	// Cores is the host core count (default 32).
	Cores int
	// SNC enables sub-NUMA clustering (half the memory channels), the §VII
	// methodology.
	SNC bool
}

// System is a host with an attached CXL device — the platform every
// experiment and example runs on.
type System struct {
	// Host is the dual-socket server model.
	Host *host.Host
	// Dev is the attached CXL device.
	Dev *device.Device
	// P is the timing model in effect.
	P *Params
}

// withDefaults returns the Config with every zero field replaced by the
// value NewSystem builds with: DefaultParams, a Type-2 device and the
// Table II host.
func (c Config) withDefaults() Config {
	if c.Params == nil {
		c.Params = DefaultParams()
	}
	if c.DeviceType == 0 {
		c.DeviceType = Type2
	}
	hc := host.DefaultConfig()
	if c.LLCBytes == 0 {
		c.LLCBytes = hc.LLCBytes
	}
	if c.LLCWays == 0 {
		c.LLCWays = hc.LLCWays
	}
	if c.Cores == 0 {
		c.Cores = hc.Cores
	}
	return c
}

// NewSystem builds a host + device pair.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	h, err := host.New(cfg.Params, host.Config{
		LLCBytes: cfg.LLCBytes, LLCWays: cfg.LLCWays, Cores: cfg.Cores, SNC: cfg.SNC,
	})
	if err != nil {
		return nil, err
	}
	if _, err := h.Attach(cfg.DeviceType); err != nil {
		return nil, err
	}
	return &System{Host: h, Dev: h.Dev, P: cfg.Params}, nil
}

// MustNewSystem is NewSystem for static configurations.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// AccessResult describes one memory operation's outcome.
type AccessResult struct {
	// Done is the requester-visible completion time.
	Done Time
	// Data is the 64-byte line for reads (nil in timing-only mode).
	Data []byte
	// HMCHit / DMCHit / LLCHit report where the line was found.
	HMCHit, DMCHit, LLCHit bool
}

// D2H issues one cache-line device-to-host-memory access with the given
// hint, starting at now (§IV-A). data carries the payload for writes.
func (s *System) D2H(req D2HReq, addr Addr, data []byte, now Time) AccessResult {
	r := s.Dev.D2H(req, addr, data, now)
	return AccessResult{Done: r.Done, Data: r.Data, HMCHit: r.HMCHit, LLCHit: r.LLCHit}
}

// D2D issues one cache-line device-to-device-memory access (§IV-B).
func (s *System) D2D(req D2HReq, addr Addr, data []byte, now Time) AccessResult {
	r := s.Dev.D2D(req, addr, data, now)
	return AccessResult{Done: r.Done, Data: r.Data, DMCHit: r.DMCHit}
}

// H2D issues one host-CPU access on core to addr (device memory takes the
// CXL.mem path, host memory the local hierarchy).
func (s *System) H2D(core int, op HostOp, addr Addr, data []byte, now Time) AccessResult {
	r := s.Host.Core(core).Access(op, addr, data, now)
	return AccessResult{Done: r.Done, Data: r.Data, LLCHit: r.LLCHit, DMCHit: r.DMCHit}
}

// EnterDeviceBias flips a device-memory region to device-bias mode after
// flushing host copies (§IV-B); it returns the completion time.
func (s *System) EnterDeviceBias(base Addr, size uint64, now Time) Time {
	return s.Dev.EnterDeviceBias(phys.Range{Base: base, Size: size}, now)
}

// BiasOf reports the bias mode governing a device-memory address.
func (s *System) BiasOf(addr Addr) BiasMode { return s.Dev.BiasOf(addr) }

// WriteHostMemory / ReadHostMemory move bytes functionally (no timing) —
// experiment setup.
func (s *System) WriteHostMemory(addr Addr, data []byte) { s.Host.Store().Write(addr, data) }

// ReadHostMemory reads len(dst) bytes at addr.
func (s *System) ReadHostMemory(addr Addr, dst []byte) { s.Host.Store().Read(addr, dst) }

// WriteDeviceMemory / ReadDeviceMemory are the device-side equivalents.
func (s *System) WriteDeviceMemory(addr Addr, data []byte) { s.Dev.WriteDevMemDirect(addr, data) }

// ReadDeviceMemory reads len(dst) bytes at addr.
func (s *System) ReadDeviceMemory(addr Addr, dst []byte) { s.Dev.ReadDevMemDirect(addr, dst) }

// ResetTiming returns every timing resource to idle without touching cache
// or memory contents — use between measurements.
func (s *System) ResetTiming() { s.Host.ResetTiming() }

// TraceBuffer is a bounded in-memory transaction trace.
type TraceBuffer = trace.Buffer

// TraceEvent is one traced access.
type TraceEvent = trace.Event

// EnableTracing attaches a ring buffer capturing the most recent capacity
// device transactions (D2H, D2D and H2D); it returns the buffer for
// inspection, CSV export or summarization.
func (s *System) EnableTracing(capacity int) *TraceBuffer {
	b := trace.NewBuffer(capacity)
	s.Dev.SetTracer(b)
	return b
}

// DisableTracing detaches any tracer.
func (s *System) DisableTracing() { s.Dev.SetTracer(nil) }

// FormatTraceSummary renders a trace buffer's per-operation aggregation as
// an aligned table.
func FormatTraceSummary(b *TraceBuffer) string { return trace.FormatSummary(b.Summarize()) }
