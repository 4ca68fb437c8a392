package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by cxlperf's own wrappers
// around the layer's public functions: nothing inside the program is
// instrumented. Spans of one request share Req; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	// Tag refines the name: a section, a cache tier. Detail identifies
	// the call for a reader of the trace: a job ID, a request path.
	Tag    string `json:"tag,omitempty"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID before the span ends, so children recorded
// while it is open can name it as their parent.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span; s.ID of 0 takes a fresh ID. It returns the
// span's ID.
func (t *tracer) add(s span, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.Start = start.Sub(t.epoch).Nanoseconds()
	s.End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// spanIndex answers the two questions the per-layer metrics ask of a
// trace: which spans have a name, and which spans are whose children.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]interval
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]interval{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.interval())
		}
	}
	return ix
}

// self is s's self time in nanoseconds.
func (ix spanIndex) self(s span) int64 { return selfTime(s.interval(), ix.children[s.ID]) }

// durationsMs lists the durations of the named spans in milliseconds,
// optionally only those with the given tag.
func (ix spanIndex) durationsMs(name, tag string) []float64 {
	var xs []float64
	for _, s := range ix.byName[name] {
		if tag == "" || s.Tag == tag {
			xs = append(xs, float64(s.dur())/1e6)
		}
	}
	return xs
}
