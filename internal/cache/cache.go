// Package cache implements the set-associative coherence caches of the
// model: the host L1/L2/LLC levels, the device's host-memory cache (HMC,
// 4-way 128 KB) and device-memory cache (DMC, direct-mapped 32 KB).
//
// A Cache tracks per-line MESI(+Owned) state and optionally the line's 64
// bytes of data, with true LRU replacement within a set. Coherence *policy*
// (who may invalidate whom, Table III of the paper) lives in the coherence
// and device packages; this package provides the mechanics.
package cache

import (
	"fmt"

	"repro/internal/phys"
)

// State is a cache-line coherence state. The model uses MESI for host
// caches and HMC; DMC additionally uses Owned to reproduce the §V-C H2D
// experiments (lines "in owned" vs "in shared" vs "modified").
type State uint8

// Coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Owned
)

// String returns the one-letter conventional name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache line's bookkeeping. Data is nil in timing-only mode.
type Line struct {
	Tag   phys.Addr // line-aligned address
	State State
	Data  []byte // nil or LineSize bytes
	// lru is the set-local recency counter (higher = more recent).
	lru uint64
}

// Valid reports whether the line holds a translation (state != I).
func (l *Line) Valid() bool { return l != nil && l.State != Invalid }

// Stats counts cache events for reporting.
type Stats struct {
	Hits, Misses, Fills, Evictions, Writebacks, Invalidations uint64
}

// Victim describes a line evicted by Fill: its address, state and data at
// eviction time. Callers write back Modified/Owned victims.
type Victim struct {
	Addr  phys.Addr
	State State
	Data  []byte
}

// Dirty reports whether the victim must be written back.
func (v Victim) Dirty() bool { return v.State == Modified || v.State == Owned }

// chunkShift sizes the lazy set-header blocks: 1<<chunkShift sets per
// chunk. 64 sets keeps the eager outer index 64× smaller than one header
// per set while a chunk header block is only a couple of KB.
const (
	chunkShift = 6
	chunkSets  = 1 << chunkShift
)

// Cache is a set-associative cache with true-LRU replacement.
//
// Line storage is lazy at three levels: an eager outer index of 64-set
// chunks (small — one nil slice header per 64 sets), a chunk's per-set
// header block allocated on the first Fill inside it, and each set's
// lines, which grow a way at a time. The paper's caches are large (a 60
// MB LLC is ~1M Line records) but each experiment rig touches a tiny
// fraction of the sets, and every job of the parallel runner builds its
// own rig — eagerly zeroing the full line array dominated both the
// allocation volume and the construction time of the characterization
// benchmarks, and even one eager slice header per set made cache
// construction the single largest allocation source in BenchmarkInfer.
// A streaming burst fills one line into each of thousands of fresh sets,
// so claiming all ways at a set's first fill cost 15 Lines per filled
// line in the LLC; a set instead holds only the slots it has used, its
// capacity doubling 1 → 2 → 4 → … → ways. Behavior is identical because
// missing storage and Invalid lines are indistinguishable through the
// API: a fill takes the first Invalid slot, else appends the next slot —
// exactly the slot an eagerly allocated set would pick.
//
// Because a set moves when it grows, a *Line returned by Lookup or Peek
// is valid only until the next Fill on the same cache. Invalidate,
// SetState and the flushes never move a set.
type Cache struct {
	name      string
	ways      int
	sets      int
	setMask   phys.Addr
	chunks    [][][]Line // [chunk][set-in-chunk]lines; inner levels nil until first Fill
	free      []Line     // slab remainder feeding per-set line storage
	slabLines int        // lines per slab; grows geometrically to maxSlabLines
	tick      uint64
	stats     Stats
}

// New creates a cache of the given total size in bytes and associativity.
// Size must be a multiple of ways*LineSize and the set count must be a power
// of two (true of every cache in the paper's Table II and §IV).
func New(name string, sizeBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache %s: size %d, ways %d", name, sizeBytes, ways)
	}
	linesTotal := sizeBytes / phys.LineSize
	if linesTotal*phys.LineSize != sizeBytes || linesTotal%ways != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d-way line sets", name, sizeBytes, ways)
	}
	sets := linesTotal / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	return &Cache{
		name:    name,
		ways:    ways,
		sets:    sets,
		setMask: phys.Addr(sets - 1),
		chunks:  make([][][]Line, (sets+chunkSets-1)>>chunkShift),
	}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, sizeBytes, ways int) *Cache {
	c, err := New(name, sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * phys.LineSize }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// set returns addr's set for lookup paths: nil when the set has never
// been filled, which reads as all-Invalid.
func (c *Cache) set(addr phys.Addr) []Line {
	idx := int((phys.LineAddr(addr) / phys.LineSize) & c.setMask)
	ch := c.chunks[idx>>chunkShift]
	if ch == nil {
		return nil
	}
	return ch[idx&(chunkSets-1)]
}

// setAlloc returns addr's chunk header block and the set's index in it
// for the fill path, allocating the block on first use.
func (c *Cache) setAlloc(addr phys.Addr) ([][]Line, int) {
	idx := int((phys.LineAddr(addr) / phys.LineSize) & c.setMask)
	ci := idx >> chunkShift
	ch := c.chunks[ci]
	if ch == nil {
		n := chunkSets
		if c.sets < chunkSets {
			n = c.sets
		}
		ch = make([][]Line, n)
		c.chunks[ci] = ch
	}
	return ch, idx & (chunkSets - 1)
}

// Slab sizes, in lines: the first slab is small and each next one four
// times larger, so a short-lived rig that touches a handful of sets never
// zeroes a large slab.
const (
	minSlabLines = 16
	maxSlabLines = 1024
)

// grow returns s extended by one slot. When s is at capacity its lines
// move to storage of twice the capacity (at most ways), carved from a
// per-cache slab: streaming fills touch sets in bulk, and one allocation
// per set was a dominant slice of the figure benchmarks' allocations.
func (c *Cache) grow(s []Line) []Line {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	n := min(max(2*cap(s), 1), c.ways)
	if len(c.free) < n {
		switch {
		case c.slabLines == 0:
			c.slabLines = minSlabLines
		case c.slabLines < maxSlabLines:
			c.slabLines *= 4
		}
		c.free = make([]Line, max(min(c.slabLines, c.sets*c.ways), n))
	}
	t := c.free[: len(s)+1 : n]
	c.free = c.free[n:]
	copy(t, s)
	return t
}

// Lookup finds the line holding addr, updating recency and hit/miss
// statistics. It returns nil on miss.
func (c *Cache) Lookup(addr phys.Addr) *Line {
	tag := phys.LineAddr(addr)
	s := c.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Tag == tag {
			c.tick++
			s[i].lru = c.tick
			c.stats.Hits++
			return &s[i]
		}
	}
	c.stats.Misses++
	return nil
}

// Peek finds the line holding addr without touching recency or statistics —
// for cross-validation in tests and state dumps (the paper's methodology
// cross-validates presence/absence of lines in HMC, DMC and LLC, §V).
func (c *Cache) Peek(addr phys.Addr) *Line {
	tag := phys.LineAddr(addr)
	s := c.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Tag == tag {
			return &s[i]
		}
	}
	return nil
}

// MissRun reports how many consecutive cache lines, starting at addr's line
// and stepping one line at a time, are absent from the cache — i.e. would
// Peek nil — up to max. Like Peek it touches neither recency nor statistics;
// block transfers use it to batch runs of miss-path lines.
func (c *Cache) MissRun(addr phys.Addr, max int) int {
	tag := phys.LineAddr(addr)
	for i := 0; i < max; i++ {
		idx := int((tag / phys.LineSize) & c.setMask)
		if ch := c.chunks[idx>>chunkShift]; ch != nil {
			for j, s := 0, ch[idx&(chunkSets-1)]; j < len(s); j++ {
				if s[j].State != Invalid && s[j].Tag == tag {
					return i
				}
			}
		}
		tag += phys.LineSize
	}
	return max
}

// Fill inserts addr with the given state (and optional data, which is
// copied), evicting the LRU victim if the set is full. It returns the victim
// when one was displaced. Filling a line that is already present updates its
// state and data in place.
func (c *Cache) Fill(addr phys.Addr, st State, data []byte) (Victim, bool) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	tag := phys.LineAddr(addr)
	ch, si := c.setAlloc(addr)
	s := ch[si]
	c.tick++
	// Already present: update in place.
	for i := range s {
		if s[i].State != Invalid && s[i].Tag == tag {
			s[i].State = st
			s[i].lru = c.tick
			setData(&s[i], data)
			return Victim{}, false
		}
	}
	c.stats.Fills++
	// Free way? Slots past len(s) have never been used, so the first
	// Invalid slot, else slot len(s), is the first free way.
	i := 0
	for i < len(s) && s[i].State != Invalid {
		i++
	}
	if i == len(s) && len(s) < c.ways {
		s = c.grow(s)
		ch[si] = s
	}
	if i < len(s) {
		s[i] = Line{Tag: tag, State: st, lru: c.tick}
		setData(&s[i], data)
		return Victim{}, false
	}
	// Evict LRU.
	victim := 0
	for i := 1; i < len(s); i++ {
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	v := Victim{Addr: s[victim].Tag, State: s[victim].State, Data: s[victim].Data}
	c.stats.Evictions++
	if v.Dirty() {
		c.stats.Writebacks++
	}
	s[victim] = Line{Tag: tag, State: st, lru: c.tick}
	setData(&s[victim], data)
	return v, true
}

func setData(l *Line, data []byte) {
	if data == nil {
		return
	}
	if len(data) != phys.LineSize {
		panic(fmt.Sprintf("cache: fill data %d bytes, want %d", len(data), phys.LineSize))
	}
	if l.Data == nil {
		l.Data = make([]byte, phys.LineSize)
	}
	copy(l.Data, data)
}

// Invalidate drops addr from the cache, returning its pre-invalidation state
// and data (nil data in timing-only mode). The returned bool reports whether
// the line was present.
func (c *Cache) Invalidate(addr phys.Addr) (State, []byte, bool) {
	tag := phys.LineAddr(addr)
	s := c.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Tag == tag {
			st, data := s[i].State, s[i].Data
			s[i] = Line{}
			c.stats.Invalidations++
			return st, data, true
		}
	}
	return Invalid, nil, false
}

// SetState changes the state of a resident line; it reports whether the line
// was present.
func (c *Cache) SetState(addr phys.Addr, st State) bool {
	l := c.Peek(addr)
	if l == nil {
		return false
	}
	if st == Invalid {
		_, _, ok := c.Invalidate(addr)
		return ok
	}
	l.State = st
	return true
}

// VisitValid calls fn for every valid line. fn must not mutate the cache.
// Only chunks that have ever been filled are visited, so a sparse working
// set scans in time proportional to the lines touched, not the cache
// capacity.
func (c *Cache) VisitValid(fn func(l *Line)) {
	for _, ch := range c.chunks {
		for _, s := range ch {
			for i := range s {
				if s[i].State != Invalid {
					fn(&s[i])
				}
			}
		}
	}
}

// FlushAll invalidates every line, calling writeback for each dirty victim
// (Modified or Owned) before dropping it. writeback may be nil.
func (c *Cache) FlushAll(writeback func(v Victim)) {
	for _, ch := range c.chunks {
		for _, s := range ch {
			for i := range s {
				l := &s[i]
				if l.State == Invalid {
					continue
				}
				if writeback != nil && (l.State == Modified || l.State == Owned) {
					c.stats.Writebacks++
					writeback(Victim{Addr: l.Tag, State: l.State, Data: l.Data})
				}
				c.stats.Invalidations++
				*l = Line{}
			}
		}
	}
}

// FlushRange invalidates all lines inside r (used when host software
// prepares a region for device-bias mode, §IV-B), writing back dirty lines
// through writeback (may be nil).
func (c *Cache) FlushRange(r phys.Range, writeback func(v Victim)) int {
	flushed := 0
	for _, ch := range c.chunks {
		for _, s := range ch {
			for i := range s {
				l := &s[i]
				if l.State == Invalid || !r.Contains(l.Tag) {
					continue
				}
				if writeback != nil && (l.State == Modified || l.State == Owned) {
					c.stats.Writebacks++
					writeback(Victim{Addr: l.Tag, State: l.State, Data: l.Data})
				}
				c.stats.Invalidations++
				*l = Line{}
				flushed++
			}
		}
	}
	return flushed
}

// CountValid returns the number of valid lines (for occupancy checks).
func (c *Cache) CountValid() int {
	n := 0
	for _, ch := range c.chunks {
		for _, s := range ch {
			for i := range s {
				if s[i].State != Invalid {
					n++
				}
			}
		}
	}
	return n
}
