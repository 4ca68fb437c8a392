// Package host models the dual-socket Xeon server of Table II: the cache
// hierarchy and home agent of socket 0, CPU cores issuing
// ld/nt-ld/st/nt-st, the UPI-emulated CXL paths (a remote-socket core
// standing in for the device, paper footnote 1), CLFLUSH/CLDEMOTE state
// priming, and the DSA copy engine.
package host

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/timing"
)

// Config shapes the host model.
type Config struct {
	// LLCBytes/LLCWays shape socket 0's LLC (60 MB, 15-way in Table II).
	LLCBytes, LLCWays int
	// Cores is the number of CPU cores modeled per socket.
	Cores int
	// SNC halves the memory channels visible to the benchmark, matching the
	// paper's sub-NUMA-clustering methodology in §VII.
	SNC bool
}

// DefaultConfig returns the Table II host.
func DefaultConfig() Config {
	return Config{LLCBytes: 60 << 20, LLCWays: 15, Cores: 32}
}

// Host is the modeled server: home agent, LLC, memory, links and cores.
type Host struct {
	p    *timing.Params
	cfg  Config
	home *coherence.HomeAgent
	llc  *cache.Cache
	stor *mem.Store
	chs  *mem.Channels
	amap *mem.Map

	// UPI connects the two sockets; CXLLink connects socket 0 to the device.
	UPI     *interconnect.Link
	CXLLink *interconnect.Link

	// Dev is the attached CXL device (nil until Attach).
	Dev *device.Device

	cores []*Core

	// arena backs the line buffers the access paths hand to callers.
	// Returned data stays valid until the next ResetTiming (bump
	// allocation, no reuse in between).
	arena phys.LineArena
}

// New builds a host (without a device; call Attach).
func New(p *timing.Params, cfg Config) (*Host, error) {
	if msg := p.Validate(); msg != "" {
		return nil, fmt.Errorf("host: %s", msg)
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("host: Cores = %d, want at least 1", cfg.Cores)
	}
	llc, err := cache.New("llc", cfg.LLCBytes, cfg.LLCWays)
	if err != nil {
		return nil, err
	}
	channels := p.Host.MemChannels
	if cfg.SNC {
		channels /= 2
	}
	if channels <= 0 {
		return nil, fmt.Errorf("host: no memory channels after SNC")
	}
	stor := mem.NewStore("hostmem")
	chs := mem.NewChannels("mc", channels, p.DRAM.WriteQueueEntries, p.DRAM.WriteDrainPerLine)
	h := &Host{
		p:       p,
		cfg:     cfg,
		home:    coherence.NewHomeAgent(p, llc, stor, chs),
		llc:     llc,
		stor:    stor,
		chs:     chs,
		amap:    mem.NewMap(),
		UPI:     interconnect.NewLink("upi", p.UPI.OneWay, p.UPI.BytesPerSec),
		CXLLink: interconnect.NewLink("cxl", p.CXL.OneWay, p.CXL.BytesPerSec),
	}
	// Cores are constructed on first use (Core): each one carries seven
	// named resources/credit pools, and most rigs exercise one or two of
	// the 32 modeled cores, so eager construction was a measurable slice of
	// per-job rig setup in the parallel experiment runner.
	h.cores = make([]*Core, cfg.Cores)
	return h, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(p *timing.Params, cfg Config) *Host {
	h, err := New(p, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Attach connects a CXL device of personality t, with the paper's DCOH
// and device-memory geometry (device.DefaultConfig), over this host's
// home agent and CXL link.
func (h *Host) Attach(t cxl.DeviceType) (*device.Device, error) {
	cfg := device.DefaultConfig()
	cfg.Type = t
	d, err := device.New(h.p, cfg, h.home, h.CXLLink)
	if err != nil {
		return nil, err
	}
	h.Dev = d
	return d, nil
}

// Home exposes the socket-0 home agent.
func (h *Host) Home() *coherence.HomeAgent { return h.home }

// LLC exposes socket 0's last-level cache.
func (h *Host) LLC() *cache.Cache { return h.llc }

// Store exposes host memory.
func (h *Host) Store() *mem.Store { return h.stor }

// Channels exposes the memory controllers.
func (h *Host) Channels() *mem.Channels { return h.chs }

// AddrMap exposes the system address map.
func (h *Host) AddrMap() *mem.Map { return h.amap }

// Core returns core i, constructing it on first use.
func (h *Host) Core(i int) *Core {
	if h.cores[i] == nil {
		h.cores[i] = newCore(h, i)
	}
	return h.cores[i]
}

// NumCores reports the modeled core count.
func (h *Host) NumCores() int { return len(h.cores) }

// Params exposes the timing model.
func (h *Host) Params() *timing.Params { return h.p }

// ResetTiming returns every timing resource (cores, links, controllers,
// device resources) to idle without touching cache or memory contents — the
// between-repetitions reset of the microbenchmark methodology.
func (h *Host) ResetTiming() {
	h.chs.Reset()
	h.UPI.Reset()
	h.CXLLink.Reset()
	for _, c := range h.cores {
		if c != nil { // never-touched cores are already idle
			c.resetTiming()
		}
	}
	if h.Dev != nil {
		h.Dev.ResetTiming()
	}
	// Line buffers handed out before the reset are out of contract now;
	// rewind the arenas so long-lived hosts don't accumulate slabs.
	h.arena.Reset()
	h.home.ResetArena()
}
