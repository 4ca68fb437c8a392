package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/phys"
)

// refCache is the eager reference layout: every set owns all `ways` slots
// from the start, a fill takes the first Invalid slot, else evicts the
// minimum-LRU slot. The way-lazy Cache must be indistinguishable from it.
type refCache struct {
	ways, sets int
	lines      []Line
	tick       uint64
	stats      Stats
}

func newRef(sizeBytes, ways int) *refCache {
	n := sizeBytes / phys.LineSize
	return &refCache{ways: ways, sets: n / ways, lines: make([]Line, n)}
}

func (r *refCache) set(addr phys.Addr) []Line {
	i := int(phys.LineAddr(addr)/phys.LineSize) & (r.sets - 1)
	return r.lines[i*r.ways : (i+1)*r.ways]
}

func (r *refCache) find(addr phys.Addr) *Line {
	s := r.set(addr)
	for i := range s {
		if s[i].State != Invalid && s[i].Tag == phys.LineAddr(addr) {
			return &s[i]
		}
	}
	return nil
}

func (r *refCache) lookup(addr phys.Addr) *Line {
	l := r.find(addr)
	if l == nil {
		r.stats.Misses++
		return nil
	}
	r.tick++
	l.lru = r.tick
	r.stats.Hits++
	return l
}

func (r *refCache) fill(addr phys.Addr, st State, data []byte) (Victim, bool) {
	r.tick++
	if l := r.find(addr); l != nil {
		l.State, l.lru = st, r.tick
		setData(l, data)
		return Victim{}, false
	}
	r.stats.Fills++
	s := r.set(addr)
	slot, evicted := -1, false
	for i := range s {
		if s[i].State == Invalid {
			slot = i
			break
		}
	}
	var v Victim
	if slot < 0 {
		slot, evicted = 0, true
		for i := range s {
			if s[i].lru < s[slot].lru {
				slot = i
			}
		}
		v = Victim{Addr: s[slot].Tag, State: s[slot].State, Data: s[slot].Data}
		r.stats.Evictions++
		if v.Dirty() {
			r.stats.Writebacks++
		}
	}
	s[slot] = Line{Tag: phys.LineAddr(addr), State: st, lru: r.tick}
	setData(&s[slot], data)
	return v, evicted
}

func (r *refCache) invalidate(addr phys.Addr) (State, []byte, bool) {
	l := r.find(addr)
	if l == nil {
		return Invalid, nil, false
	}
	st, data := l.State, l.Data
	*l = Line{}
	r.stats.Invalidations++
	return st, data, true
}

// flush drops every valid line that keep rejects, in slot order, writing
// back dirty ones through wb; it returns the number dropped.
func (r *refCache) flush(in func(phys.Addr) bool, wb func(Victim)) int {
	n := 0
	for i := range r.lines {
		l := &r.lines[i]
		if l.State == Invalid || !in(l.Tag) {
			continue
		}
		if wb != nil && (l.State == Modified || l.State == Owned) {
			r.stats.Writebacks++
			wb(Victim{Addr: l.Tag, State: l.State, Data: l.Data})
		}
		r.stats.Invalidations++
		*l = Line{}
		n++
	}
	return n
}

// lineStr renders a line (or its absence) for comparison.
func lineStr(l *Line) string {
	if l == nil {
		return "nil"
	}
	return fmt.Sprintf("%v/%v/%x", l.Tag, l.State, l.Data)
}

func victimStr(v Victim, ok bool) string {
	return fmt.Sprintf("%v %v/%v/%x", ok, v.Addr, v.State, v.Data)
}

// TestDifferentialAgainstEagerSets drives one seeded random stream through
// the Cache and the eager reference and requires identical hits, victims,
// statistics and visit order at every step, on the paper's shapes and on a
// cache smaller than one 64-set chunk.
func TestDifferentialAgainstEagerSets(t *testing.T) {
	shapes := []struct {
		name            string
		sizeBytes, ways int
	}{
		{"15-way", 128 * 15 * phys.LineSize, 15},
		{"4-way", 128 << 10, 4},
		{"direct-mapped", 32 << 10, 1},
		{"sub-chunk", 8 * 3 * phys.LineSize, 3},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				diffRun(t, sh.sizeBytes, sh.ways, seed)
			})
		}
	}
}

func diffRun(t *testing.T, sizeBytes, ways int, seed int64) {
	c := MustNew("diff", sizeBytes, ways)
	r := newRef(sizeBytes, ways)
	rng := rand.New(rand.NewSource(seed))
	// Three lines per slot, so sets both fill up and keep free slots.
	span := 3 * sizeBytes / phys.LineSize
	randAddr := func() phys.Addr {
		return phys.Addr(rng.Intn(span))*phys.LineSize + phys.Addr(rng.Intn(phys.LineSize))
	}
	randState := func() State { return State(1 + rng.Intn(4)) }
	var got, want []string
	record := func(dst *[]string) func(Victim) {
		return func(v Victim) { *dst = append(*dst, victimStr(v, true)) }
	}
	for op := 0; op < 10000; op++ {
		addr := randAddr()
		var what, g, w string
		switch k := rng.Intn(100); {
		case k < 40:
			st := randState()
			var data []byte
			if rng.Intn(2) == 0 {
				data = make([]byte, phys.LineSize)
				rng.Read(data)
			}
			what = fmt.Sprintf("Fill(%v, %v)", addr, st)
			g, w = victimStr(c.Fill(addr, st, data)), victimStr(r.fill(addr, st, data))
		case k < 60:
			what = fmt.Sprintf("Lookup(%v)", addr)
			g, w = lineStr(c.Lookup(addr)), lineStr(r.lookup(addr))
		case k < 70:
			what = fmt.Sprintf("Peek(%v) and MissRun", addr)
			run := 0
			for run < 8 && r.find(addr+phys.Addr(run)*phys.LineSize) == nil {
				run++
			}
			g = fmt.Sprint(lineStr(c.Peek(addr)), c.MissRun(addr, 8))
			w = fmt.Sprint(lineStr(r.find(addr)), run)
		case k < 82:
			what = fmt.Sprintf("Invalidate(%v)", addr)
			gs, gd, gok := c.Invalidate(addr)
			ws, wd, wok := r.invalidate(addr)
			g, w = fmt.Sprintf("%v %v %x", gok, gs, gd), fmt.Sprintf("%v %v %x", wok, ws, wd)
		case k < 92:
			st := State(rng.Intn(5))
			what = fmt.Sprintf("SetState(%v, %v)", addr, st)
			wok := r.find(addr) != nil
			if wok {
				if st == Invalid {
					r.invalidate(addr)
				} else {
					r.find(addr).State = st
				}
			}
			g, w = fmt.Sprint(c.SetState(addr, st)), fmt.Sprint(wok)
		case k < 96:
			rg := phys.Range{Base: phys.LineAddr(addr), Size: uint64(1+rng.Intn(64)) * phys.LineSize}
			what = fmt.Sprintf("FlushRange(%v+%v)", rg.Base, rg.Size)
			got, want = got[:0], want[:0]
			gn := c.FlushRange(rg, record(&got))
			wn := r.flush(rg.Contains, record(&want))
			g, w = fmt.Sprint(gn, got), fmt.Sprint(wn, want)
		case k < 97:
			what = "FlushAll"
			got, want = got[:0], want[:0]
			c.FlushAll(record(&got))
			r.flush(func(phys.Addr) bool { return true }, record(&want))
			g, w = fmt.Sprint(got), fmt.Sprint(want)
		default:
			what = "VisitValid"
			got, want = got[:0], want[:0]
			c.VisitValid(func(l *Line) { got = append(got, lineStr(l)) })
			for i := range r.lines {
				if r.lines[i].State != Invalid {
					want = append(want, lineStr(&r.lines[i]))
				}
			}
			g, w = fmt.Sprint(got), fmt.Sprint(want)
		}
		if g != w {
			t.Fatalf("op %d %s: cache %s, reference %s", op, what, g, w)
		}
		if c.Stats() != r.stats {
			t.Fatalf("op %d %s: stats %+v, reference %+v", op, what, c.Stats(), r.stats)
		}
	}
	valid := 0
	for i := range r.lines {
		if r.lines[i].State != Invalid {
			valid++
		}
	}
	if n := c.CountValid(); n != valid {
		t.Fatalf("CountValid = %d, reference %d", n, valid)
	}
}
