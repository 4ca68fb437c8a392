package cxl2sim

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ksm"
	"repro/internal/kvs"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/zswap"
)

// Engine is the discrete-event engine driving co-simulations.
type Engine = sim.Engine

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Proc is a cooperative simulated process (see internal/sim).
type Proc = sim.Proc

// Re-exported kernel-feature building blocks for applications that compose
// their own scenarios (the examples and cmd/kvsbench use these).
type (
	// MM is the kernel memory manager (frames, LRU, watermarks, reclaim).
	MM = kernel.MM
	// AddressSpace is one process/VM page table with CoW.
	AddressSpace = kernel.AddressSpace
	// BackingSwap is the backing swap device.
	BackingSwap = kernel.BackingSwap
	// Kswapd is the background reclaim daemon.
	Kswapd = kernel.Kswapd
	// Zswap is the compressed swap cache.
	Zswap = zswap.Zswap
	// KsmScanner is the samepage-merging scanner.
	KsmScanner = ksm.Scanner
	// KsmDaemon is ksmd.
	KsmDaemon = ksm.Daemon
	// KVSServer is the Redis-like co-running application.
	KVSServer = kvs.Server
	// OffloadPlatform bundles the hardware the backends run on.
	OffloadPlatform = offload.Platform
)

// ZswapStack is a ready-to-run zswap configuration over a System: memory
// manager, backing swap, zswap with the chosen offload backend, and kswapd.
type ZswapStack struct {
	Eng     *Engine
	MM      *MM
	Backing *BackingSwap
	Zswap   *Zswap
	Kswapd  *Kswapd
	Variant OffloadVariant
}

// NewZswapStack builds the §VI-A stack: totalPages of managed RAM, a
// zswap pool capped at maxPoolPercent, the chosen offload backend (the CXL
// variant places the pool in device memory), and kswapd pinned to
// kswapdCore.
func (s *System) NewZswapStack(eng *Engine, v OffloadVariant, totalPages, maxPoolPercent, kswapdCore int) (*ZswapStack, error) {
	if totalPages <= 0 {
		return nil, fmt.Errorf("cxl2sim: totalPages must be positive")
	}
	mm := kernel.NewMM(s.P, s.Host.Store(), Addr(0x2000_0000), totalPages)
	backing := kernel.NewBackingSwap(18*Microsecond, 22*Microsecond)
	z, err := zswap.New(zswap.Config{
		MaxPoolPercent: maxPoolPercent,
		TotalRAMPages:  totalPages,
		PoolPages:      totalPages / 2,
	}, offload.NewZswapBackend(v, offload.NewPlatform(s.Host)), backing)
	if err != nil {
		return nil, err
	}
	mm.SetSwap(z)
	kd := kernel.NewKswapd(eng, mm, s.Host.Core(kswapdCore).Sched)
	return &ZswapStack{Eng: eng, MM: mm, Backing: backing, Zswap: z, Kswapd: kd, Variant: v}, nil
}

// KsmStack is a ready-to-run ksm configuration over a System.
type KsmStack struct {
	Eng     *Engine
	MM      *MM
	Scanner *KsmScanner
	Daemon  *KsmDaemon
	Variant OffloadVariant
}

// NewKsmStack builds the §VI-B stack: totalPages of managed RAM, a scanner
// with the chosen offload backend, and ksmd pinned to ksmdCore.
func (s *System) NewKsmStack(eng *Engine, v OffloadVariant, totalPages, ksmdCore int) (*KsmStack, error) {
	if totalPages <= 0 {
		return nil, fmt.Errorf("cxl2sim: totalPages must be positive")
	}
	pl := offload.NewPlatform(s.Host)
	mm := kernel.NewMM(s.P, s.Host.Store(), Addr(0x2000_0000), totalPages)
	mm.SetSwap(kernel.NewBackingSwap(18*Microsecond, 22*Microsecond))
	sc := ksm.NewScanner(mm, offload.NewKsmBackend(v, pl))
	d := ksm.NewDaemon(eng, sc, s.Host.Core(ksmdCore).Sched)
	return &KsmStack{Eng: eng, MM: mm, Scanner: sc, Daemon: d, Variant: v}, nil
}

// NewProc creates a cooperative process pinned to a host core (core < 0
// for a free-floating process that consumes no CPU).
func (s *System) NewProc(eng *Engine, name string, core int) *Proc {
	if core < 0 {
		return sim.NewProc(eng, name, nil)
	}
	return sim.NewProc(eng, name, s.Host.Core(core).Sched)
}
