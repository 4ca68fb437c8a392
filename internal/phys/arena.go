package phys

// LineArena bump-allocates cache-line payload buffers for the
// transaction hot paths (host loads, device D2H/H2D/D2D line moves).
// Line-sized `make` calls dominate allocation in the serving and figure
// simulations — one 64-byte object per modeled memory transaction — so
// the arena carves them out of slab-sized allocations instead: an
// allocation every slab's worth of transactions rather than every one,
// and no per-line GC bookkeeping. Slabs grow (see slabSize), so an owner
// that hands out only a few lines pays for a small slab, not a full one.
//
// It is a bump allocator, not a free list: a handed-out line is never
// reused until Reset, so callers may retain AccessResult data with the
// same safety as individually allocated buffers. Reset rewinds (and
// re-zeroes) the slabs for the next run; owners call it at their timing
// reset points, where the contract is that no line buffer from the
// previous run is still referenced.
type LineArena struct {
	slabs [][]byte
	si    int // active slab index
	off   int // offset into the active slab
}

// Slab sizes in lines: the first slab holds firstSlabLines (1 KiB), each
// later one 4× the previous, up to maxSlabLines (64 KiB) per slab — 16,
// 64, 256, 1024, 1024, ...
const (
	firstSlabLines = 16
	maxSlabLines   = 1024
)

// slabSize returns the byte size of slab i.
func slabSize(i int) int {
	n := firstSlabLines
	for ; i > 0 && n < maxSlabLines; i-- {
		n *= 4
	}
	return n * LineSize
}

// Line returns a zeroed LineSize buffer with full-capacity slice bounds.
func (a *LineArena) Line() []byte {
	b := a.raw()
	clear(b)
	return b
}

// raw bump-allocates the next line without zeroing it (reused slab
// space holds stale bytes from before the last Reset).
func (a *LineArena) raw() []byte {
	if a.si == len(a.slabs) {
		a.slabs = append(a.slabs, make([]byte, slabSize(a.si)))
	}
	s := a.slabs[a.si]
	if a.off+LineSize > len(s) {
		a.si++
		a.off = 0
		return a.raw()
	}
	b := s[a.off : a.off+LineSize : a.off+LineSize]
	a.off += LineSize
	return b
}

// Clone returns an arena copy of d (nil in, nil out). d need not be
// line-sized; anything up to LineSize shares the line granularity.
func (a *LineArena) Clone(d []byte) []byte {
	if d == nil {
		return nil
	}
	if len(d) > LineSize {
		// Outside the arena's granularity — fall back to the heap.
		out := make([]byte, len(d))
		copy(out, d)
		return out
	}
	b := a.raw()
	n := copy(b, d)
	clear(b[n:]) // keep the tail zero for in-cap reslices
	return b[:n]
}

// Reset rewinds the arena for the next run in O(1); Line/Clone zero
// each buffer as it is handed back out. The slabs are reused in order,
// so an owner stops allocating once its slabs cover one reset period.
// Buffers handed out before the Reset must no longer be referenced.
func (a *LineArena) Reset() {
	a.si, a.off = 0, 0
}
