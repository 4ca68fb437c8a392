package phys

import (
	"bytes"
	"testing"
)

func TestLineArenaZeroesAfterReset(t *testing.T) {
	var a LineArena
	const n = 100 // spans the first two slabs
	for i := 0; i < n; i++ {
		b := a.Line()
		for j := range b {
			b[j] = 0xAB
		}
	}
	a.Reset()
	zero := make([]byte, LineSize)
	for i := 0; i < n; i++ {
		if b := a.Line(); !bytes.Equal(b, zero) {
			t.Fatalf("line %d after Reset holds stale bytes: %x", i, b)
		}
	}
	a.Reset()
	if c := a.Clone([]byte{1, 2, 3}); !bytes.Equal(c[:cap(c)], append([]byte{1, 2, 3}, zero[3:]...)) {
		t.Errorf("Clone over stale bytes: tail not zeroed: %x", c[:cap(c)])
	}
}

func TestLineArenaFullCapacityBounds(t *testing.T) {
	var a LineArena
	b1 := a.Line()
	b2 := a.Line()
	if len(b1) != LineSize || cap(b1) != LineSize {
		t.Fatalf("Line() len %d cap %d, want %d/%d", len(b1), cap(b1), LineSize, LineSize)
	}
	b2[0] = 0x5A
	_ = append(b1, 0xFF) // must reallocate, not write into b2
	if b2[0] != 0x5A {
		t.Errorf("append to one line clobbered its neighbour: %#x", b2[0])
	}
	c := a.Clone([]byte{7})
	if len(c) != 1 || cap(c) != LineSize {
		t.Errorf("Clone of 1 byte: len %d cap %d, want 1/%d", len(c), cap(c), LineSize)
	}
}

func TestLineArenaClone(t *testing.T) {
	var a LineArena
	if a.Clone(nil) != nil {
		t.Error("Clone(nil) != nil")
	}
	short := []byte{1, 2, 3}
	c := a.Clone(short)
	if !bytes.Equal(c, short) {
		t.Errorf("Clone(short) = %x, want %x", c, short)
	}
	short[0] = 9
	if c[0] != 1 {
		t.Error("Clone(short) aliases its input")
	}
	long := bytes.Repeat([]byte{0xCD}, LineSize+10)
	c = a.Clone(long)
	if !bytes.Equal(c, long) || len(c) != len(long) {
		t.Errorf("Clone(over-long) = %d bytes, want %d equal bytes", len(c), len(long))
	}
	long[0] = 0
	if c[0] != 0xCD {
		t.Error("Clone(over-long) aliases its input")
	}
	if len(a.slabs) != 1 || a.off != LineSize {
		t.Errorf("over-long Clone used the arena: %d slabs, offset %d", len(a.slabs), a.off)
	}
}

func TestLineArenaSlabSizes(t *testing.T) {
	var a LineArena
	want := []int{16, 64, 256, 1024, 1024, 1024}
	total := 0
	for _, n := range want {
		total += n
	}
	for i := 0; i < total; i++ {
		a.Line()
	}
	if len(a.slabs) != len(want) {
		t.Fatalf("%d lines took %d slabs, want %d", total, len(a.slabs), len(want))
	}
	for i, s := range a.slabs {
		if got := len(s) / LineSize; got != want[i] {
			t.Errorf("slab %d holds %d lines, want %d", i, got, want[i])
		}
	}
}

func TestLineArenaReuseZeroAllocs(t *testing.T) {
	var a LineArena
	const n = 2000 // past the growing slabs into full-size ones
	run := func() {
		a.Reset()
		for i := 0; i < n; i++ {
			a.Line()
		}
		a.Clone([]byte{1})
	}
	run() // grow the slabs once
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("handing lines out again after Reset: %.1f allocs/run, want 0", allocs)
	}
}
