package infer

import (
	"repro/internal/mem"
	"repro/internal/phys"
)

// block is one paged-KV block: a fixed-size run of lines in exactly one
// tier. Migration rewrites tier+addr in place, so sequences never notice
// their blocks moving.
type block struct {
	tier    Tier
	addr    phys.Addr
	lastUse uint64 // scheduler step of the last touch, for LRU
}

// pool is a fixed-capacity block allocator over a contiguous physical
// range. The free list is LIFO and every operation is deterministic, so
// block addresses replay exactly for a fixed request schedule.
type pool struct {
	tier       Tier
	base       phys.Addr
	blockBytes int
	total      int
	free       []int32
}

func newPool(tier Tier, base phys.Addr, blockBytes, total int) pool {
	p := pool{tier: tier, base: base, blockBytes: blockBytes, total: total}
	p.free = make([]int32, total)
	// Descending push order so the first allocations come from the low
	// end of the range.
	for i := range p.free {
		p.free[i] = int32(total - 1 - i)
	}
	return p
}

// span is the pool's physical range (used to pin bias for the whole far
// pool in one PTU walk).
func (p *pool) span() phys.Range {
	return phys.Range{Base: p.base, Size: uint64(p.total * p.blockBytes)}
}

func (p *pool) allocAddr() (phys.Addr, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return p.base + phys.Addr(int(slot)*p.blockBytes), true
}

func (p *pool) releaseAddr(a phys.Addr) {
	p.free = append(p.free, int32(int(a-p.base)/p.blockBytes))
}

func (p *pool) freeBlocks() int { return len(p.free) }

// KVCache is the paged KV cache: a near (host DRAM) pool plus an optional
// far pool in the configured tier, and the registry of live blocks the
// placement policies scan.
type KVCache struct {
	blockBytes int
	near, far  pool
	live       []*block
}

// Pool bases: clear of everything else the simulation maps (the host pool
// sits 4 GiB into socket-0 DRAM; the far pool 1 GiB into the device
// window, whether that window is CXL.mem, D2D-local, or behind PCIe).
const nearPoolBase = phys.Addr(4 << 30)

var farPoolBase = mem.RegionDevice.Base + phys.Addr(1<<30)

func newKVCache(cfg Config) *KVCache {
	bb := cfg.BlockTokens * cfg.BytesPerToken
	c := &KVCache{blockBytes: bb}
	c.near = newPool(TierDRAM, nearPoolBase, bb, cfg.DRAMBlocks)
	c.far = newPool(cfg.Far, farPoolBase, bb, cfg.farBlocks())
	return c
}

// canFit reports whether n more blocks fit across both pools — the
// admission-control check that keeps decode from deadlocking.
func (c *KVCache) canFit(n int) bool {
	return c.near.freeBlocks()+c.far.freeBlocks() >= n
}

// alloc takes a block from the preferred class, falling back to the other
// pool when it is full.
func (c *KVCache) alloc(class Class) (*block, bool) {
	first, second := &c.near, &c.far
	if class == Far {
		first, second = &c.far, &c.near
	}
	p := first
	a, ok := p.allocAddr()
	if !ok {
		p = second
		if a, ok = p.allocAddr(); !ok {
			return nil, false
		}
	}
	b := &block{tier: p.tier, addr: a}
	c.live = append(c.live, b)
	return b, true
}

// release returns a finished sequence's block to its pool.
func (c *KVCache) release(b *block) {
	c.releasePool(b.tier).releaseAddr(b.addr)
	for i, lb := range c.live {
		if lb == b {
			// Swap-delete: deterministic given the deterministic call
			// order, and the policies sort by recency anyway.
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			return
		}
	}
}

func (c *KVCache) releasePool(t Tier) *pool {
	if t == TierDRAM {
		return &c.near
	}
	return &c.far
}

// nearFree reports free blocks in the DRAM pool (watermark input for the
// spill policies).
func (c *KVCache) nearFree() int { return c.near.freeBlocks() }

// coldestNear returns the least-recently-used live DRAM block, or nil.
func (c *KVCache) coldestNear() *block {
	var cold *block
	for _, b := range c.live {
		if b.tier != TierDRAM {
			continue
		}
		// Ties break toward the lower address, keeping victim selection
		// independent of registry order.
		if cold == nil || b.lastUse < cold.lastUse ||
			(b.lastUse == cold.lastUse && b.addr < cold.addr) {
			cold = b
		}
	}
	return cold
}
