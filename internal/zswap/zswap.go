// Package zswap implements the compressed RAM cache for swap of §VI-A: it
// intercepts pages on both reclaim paths, compresses them through a
// pluggable offload backend (host CPU, PCIe device, or the CXL Type-2
// device), stores them in a zbud-style pool — which, uniquely for the
// CXL-based variant, can live in device memory — and falls back to the
// backing swap device for incompressible pages and pool overflow
// (max_pool_percent writeback).
package zswap

import (
	"container/list"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Breakdown is the Table IV step decomposition of one offloaded
// compression: ❷ transfer the page to the compute engine, ❹ compress,
// ❺ store the result into the zpool. Pipelined backends report the
// end-to-end Total only (as the paper does for cxl-zswap).
type Breakdown struct {
	TransferIn sim.Time
	Compute    sim.Time
	StoreOut   sim.Time
	Total      sim.Time
	Pipelined  bool
}

// StoreResult is a backend's outcome for one page compression.
type StoreResult struct {
	// Comp is the compressed image (real bytes).
	Comp []byte
	// Done is when the compressed page is fully in the zpool.
	Done sim.Time
	// HostCPU is the host-CPU time consumed (charged to the reclaiming
	// process).
	HostCPU sim.Time
	// Breakdown decomposes the latency for Table IV.
	Breakdown Breakdown
	// PollutedLines approximates how many host-LLC lines the operation
	// displaced (the cache-pollution interference of §VII).
	PollutedLines int
}

// LoadResult is a backend's outcome for one page decompression.
type LoadResult struct {
	Page          []byte
	Done          sim.Time
	HostCPU       sim.Time
	PollutedLines int
}

// Backend performs the two offloaded data-plane functions of zswap
// (§VI-A): page compression into the pool and decompression out of it.
// internal/offload provides the cpu-, pcie-rdma-, pcie-dma- and cxl-
// implementations.
type Backend interface {
	Name() string
	// Store compresses page (resident at src in host memory) and deposits
	// the compressed image at dst inside the pool storage.
	Store(page []byte, src, dst phys.Addr, now sim.Time) StoreResult
	// Load reads the compLen-byte compressed image at src from pool storage
	// and delivers the decompressed page toward dst in host memory.
	Load(src phys.Addr, compLen int, dst phys.Addr, now sim.Time) LoadResult
	// PoolBase is the first address of the pool storage: host DRAM, or
	// device memory, which only the CXL Type-2 backend can use (§VI-A).
	PoolBase() phys.Addr
	// PoolWrite and PoolRead are the functional (untimed) data movers for
	// pool storage; Store/Load model the timing of the same movement.
	PoolWrite(addr phys.Addr, data []byte)
	PoolRead(addr phys.Addr, dst []byte)
}

// Config shapes the zswap instance.
type Config struct {
	// MaxPoolPercent caps the pool at this percentage of total RAM pages
	// (the kernel's max_pool_percent, default 20).
	MaxPoolPercent int
	// TotalRAMPages is the machine RAM size the percentage applies to.
	TotalRAMPages int
	// PoolPages sizes the pool storage region; the backend places it.
	PoolPages int
}

// Validate reports the first problem, or "".
func (c Config) Validate() string {
	switch {
	case c.MaxPoolPercent <= 0 || c.MaxPoolPercent > 100:
		return "zswap: MaxPoolPercent out of range"
	case c.TotalRAMPages <= 0:
		return "zswap: TotalRAMPages must be positive"
	case c.PoolPages <= 0:
		return "zswap: PoolPages must be positive"
	}
	return ""
}

type entry struct {
	slot    kernel.SwapSlot
	addr    phys.Addr
	compLen int
	zbudIdx int
	first   bool
	lruElem *list.Element
	// sameFilled marks a page whose every byte equals fillValue: the kernel
	// stores such pages as a value with no pool allocation at all.
	sameFilled bool
	fillValue  byte
}

// zbudPage pairs up to two compressed pages in one PageSize slot, first
// from the front and last from the back, like the kernel's zbud allocator.
type zbudPage struct {
	firstLen, lastLen int
}

func (z *zbudPage) free() bool   { return z.firstLen == 0 && z.lastLen == 0 }
func (z *zbudPage) spare() int   { return phys.PageSize - z.firstLen - z.lastLen }
func (z *zbudPage) single() bool { return (z.firstLen == 0) != (z.lastLen == 0) }

// Stats counts zswap events.
type Stats struct {
	Stores, Loads uint64
	// SameFilled counts pages stored as a fill value (the kernel's
	// same-filled-page optimization: zero pages and memset patterns consume
	// no pool space and skip compression entirely).
	SameFilled         uint64
	Rejected           uint64 // incompressible, sent straight to backing
	Writebacks         uint64 // pool overflow evictions to backing
	BackingLoads       uint64 // faults served by the backing device
	PoolPagesUsed      int
	CompressedBytes    uint64
	UncompressedBytes  uint64
	HostCPU            sim.Time
	LastStoreBreakdown Breakdown
	// PollutedLines accumulates the host-LLC lines the backend displaced —
	// the cache-pollution interference currency of §VII.
	PollutedLines uint64
}

// Zswap is the compressed swap cache. It implements kernel.SwapOps.
type Zswap struct {
	cfg     Config
	backend Backend
	backing *kernel.BackingSwap

	entries map[kernel.SwapSlot]*entry
	lru     *list.List // of *entry, front = oldest
	zbud    []zbudPage
	// unbuddied holds indexes of zbud pages with exactly one resident
	// buddy, candidates for pairing.
	unbuddied []int
	freeIdx   []int
	used      int // zbud pages in use

	stats Stats
}

// New builds a zswap instance over the given backend and backing device.
func New(cfg Config, backend Backend, backing *kernel.BackingSwap) (*Zswap, error) {
	if msg := cfg.Validate(); msg != "" {
		return nil, fmt.Errorf("%s", msg)
	}
	if backend == nil || backing == nil {
		return nil, fmt.Errorf("zswap: backend and backing device are required")
	}
	z := &Zswap{
		cfg:     cfg,
		backend: backend,
		backing: backing,
		entries: make(map[kernel.SwapSlot]*entry),
		lru:     list.New(),
		zbud:    make([]zbudPage, cfg.PoolPages),
	}
	for i := cfg.PoolPages - 1; i >= 0; i-- {
		z.freeIdx = append(z.freeIdx, i)
	}
	return z, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config, backend Backend, backing *kernel.BackingSwap) *Zswap {
	z, err := New(cfg, backend, backing)
	if err != nil {
		panic(err)
	}
	return z
}

// Backend returns the active offload backend.
func (z *Zswap) Backend() Backend { return z.backend }

// Stats returns a copy of the counters.
func (z *Zswap) Stats() Stats {
	s := z.stats
	s.PoolPagesUsed = z.used
	return s
}

// PoolEntries reports how many compressed pages the pool holds.
func (z *Zswap) PoolEntries() int { return len(z.entries) }

// poolLimitPages is the max_pool_percent cap in zbud pages.
func (z *Zswap) poolLimitPages() int {
	limit := z.cfg.TotalRAMPages * z.cfg.MaxPoolPercent / 100
	if limit > z.cfg.PoolPages {
		limit = z.cfg.PoolPages
	}
	return limit
}

// allocZbud finds room for compLen bytes, preferring to buddy-up with an
// existing single occupant. It returns the zbud index, the pool address and
// whether the allocation took the first or last half.
func (z *Zswap) allocZbud(compLen int) (idx int, addr phys.Addr, first bool, ok bool) {
	// Try to pair with an unbuddied page.
	for i := len(z.unbuddied) - 1; i >= 0; i-- {
		zi := z.unbuddied[i]
		zp := &z.zbud[zi]
		if zp.spare() >= compLen {
			z.unbuddied = append(z.unbuddied[:i], z.unbuddied[i+1:]...)
			base := z.backend.PoolBase() + phys.Addr(zi)*phys.PageSize
			if zp.firstLen == 0 {
				zp.firstLen = compLen
				return zi, base, true, true
			}
			zp.lastLen = compLen
			return zi, base + phys.Addr(phys.PageSize-compLen), false, true
		}
	}
	if len(z.freeIdx) == 0 {
		return 0, 0, false, false
	}
	zi := z.freeIdx[len(z.freeIdx)-1]
	z.freeIdx = z.freeIdx[:len(z.freeIdx)-1]
	z.used++
	zp := &z.zbud[zi]
	zp.firstLen = compLen
	if compLen < phys.PageSize {
		z.unbuddied = append(z.unbuddied, zi)
	}
	return zi, z.backend.PoolBase() + phys.Addr(zi)*phys.PageSize, true, true
}

func (z *Zswap) freeZbud(e *entry) {
	zp := &z.zbud[e.zbudIdx]
	if e.first {
		zp.firstLen = 0
	} else {
		zp.lastLen = 0
	}
	if zp.free() {
		// Remove from unbuddied if present.
		for i, zi := range z.unbuddied {
			if zi == e.zbudIdx {
				z.unbuddied = append(z.unbuddied[:i], z.unbuddied[i+1:]...)
				break
			}
		}
		z.freeIdx = append(z.freeIdx, e.zbudIdx)
		z.used--
	} else if zp.single() {
		found := false
		for _, zi := range z.unbuddied {
			if zi == e.zbudIdx {
				found = true
				break
			}
		}
		if !found {
			z.unbuddied = append(z.unbuddied, e.zbudIdx)
		}
	}
}

// StorePage implements kernel.SwapOps: compress and pool the page, spilling
// to the backing device when the page is incompressible or the pool is
// full. Pool-overflow writeback (§VI-A) is performed inline.
func (z *Zswap) StorePage(slot kernel.SwapSlot, page []byte, now sim.Time) (done, hostCPU sim.Time) {
	if len(page) != phys.PageSize {
		panic("zswap: page size")
	}
	// Same-filled-page optimization: a page of one repeated byte is stored
	// as that value — no compression, no pool space (kernel zswap's
	// zswap_is_page_same_filled path). The check is a single cheap pass.
	if fill, same := sameFilled(page); same {
		e := &entry{slot: slot, sameFilled: true, fillValue: fill}
		e.lruElem = z.lru.PushBack(e)
		z.entries[slot] = e
		z.stats.Stores++
		z.stats.SameFilled++
		z.stats.UncompressedBytes += phys.PageSize
		// The scan costs roughly one pass over the page on the host CPU.
		scan := z.sameFilledScanCost()
		return now + scan, scan
	}
	res := z.backend.Store(page, 0, 0, now) // probe compresses; dst fixed below
	z.stats.LastStoreBreakdown = res.Breakdown
	hostCPU += res.HostCPU
	z.stats.HostCPU += res.HostCPU
	z.stats.PollutedLines += uint64(res.PollutedLines)

	// The kernel rejects pages whose compressed form is not smaller than a
	// page.
	if len(res.Comp) >= phys.PageSize {
		z.stats.Rejected++
		return z.backing.Write(slot, page, res.Done), hostCPU
	}

	idx, addr, first, ok := z.allocZbud(len(res.Comp))
	if !ok {
		// Pool storage exhausted: bypass to backing.
		z.stats.Rejected++
		return z.backing.Write(slot, page, res.Done), hostCPU
	}
	// Deposit the compressed image at its final pool address. The probe
	// Store above already modeled the data-plane timing; the deposit is the
	// functional side.
	z.depositComp(addr, res.Comp)

	e := &entry{slot: slot, addr: addr, compLen: len(res.Comp), zbudIdx: idx, first: first}
	e.lruElem = z.lru.PushBack(e)
	z.entries[slot] = e
	z.stats.Stores++
	z.stats.CompressedBytes += uint64(len(res.Comp))
	z.stats.UncompressedBytes += phys.PageSize

	done = res.Done
	// max_pool_percent overflow: write back LRU entries to backing.
	for z.used > z.poolLimitPages() {
		wbDone, wbCPU := z.writebackOldest(done)
		done = wbDone
		hostCPU += wbCPU
	}
	return done, hostCPU
}

// writebackOldest evicts the LRU compressed page to the backing device:
// decompress (through the backend) and write out, as the kernel does.
func (z *Zswap) writebackOldest(now sim.Time) (done, hostCPU sim.Time) {
	front := z.lru.Front()
	if front == nil {
		return now, 0
	}
	e := front.Value.(*entry)
	comp := z.readComp(e.addr, e.compLen)
	lres := z.backend.Load(e.addr, e.compLen, 0, now)
	_ = comp
	done = z.backing.Write(e.slot, lres.Page, lres.Done)
	z.removeEntry(e)
	z.stats.Writebacks++
	z.stats.HostCPU += lres.HostCPU
	return done, lres.HostCPU
}

// LoadPage implements kernel.SwapOps: serve the fault from the pool when
// present, otherwise from the backing device.
func (z *Zswap) LoadPage(slot kernel.SwapSlot, now sim.Time) (page []byte, done, hostCPU sim.Time) {
	e, ok := z.entries[slot]
	if ok && e.sameFilled {
		// Reconstruct the page with a memset-speed fill.
		page = make([]byte, phys.PageSize)
		if e.fillValue != 0 {
			for i := range page {
				page[i] = e.fillValue
			}
		}
		z.removeEntrySameFilled(e)
		z.stats.Loads++
		cost := z.sameFilledScanCost() / 2
		return page, now + cost, cost
	}
	if !ok {
		p, d, err := z.backing.Read(slot, now)
		if err != nil {
			panic(fmt.Sprintf("zswap: slot %d in neither pool nor backing", slot))
		}
		z.stats.BackingLoads++
		return p, d, 0
	}
	res := z.backend.Load(e.addr, e.compLen, 0, now)
	z.removeEntry(e)
	z.stats.Loads++
	z.stats.HostCPU += res.HostCPU
	z.stats.PollutedLines += uint64(res.PollutedLines)
	return res.Page, res.Done, res.HostCPU
}

// DropPage implements kernel.SwapOps.
func (z *Zswap) DropPage(slot kernel.SwapSlot) {
	if e, ok := z.entries[slot]; ok {
		z.removeEntry(e)
		return
	}
	z.backing.Drop(slot)
}

func (z *Zswap) removeEntry(e *entry) {
	if e.sameFilled {
		z.removeEntrySameFilled(e)
		return
	}
	z.lru.Remove(e.lruElem)
	delete(z.entries, e.slot)
	z.freeZbud(e)
}

func (z *Zswap) removeEntrySameFilled(e *entry) {
	z.lru.Remove(e.lruElem)
	delete(z.entries, e.slot)
}

// sameFilled reports whether every byte of the page equals its first byte.
func sameFilled(page []byte) (byte, bool) {
	v := page[0]
	for _, b := range page[1:] {
		if b != v {
			return 0, false
		}
	}
	return v, true
}

// sameFilledScanCost approximates one cached pass over a page (a memchr-
// style scan at cache speed).
func (z *Zswap) sameFilledScanCost() sim.Time {
	return 400 * sim.Nanosecond
}

// depositComp and readComp move compressed bytes in and out of pool
// storage. The backend has already modeled the transfer timing; these are
// the functional halves, routed through the backend's storage so device-
// memory pools hold real data.
func (z *Zswap) depositComp(addr phys.Addr, comp []byte) {
	z.backend.PoolWrite(addr, comp)
}

func (z *Zswap) readComp(addr phys.Addr, n int) []byte {
	buf := make([]byte, n)
	z.backend.PoolRead(addr, buf)
	return buf
}
