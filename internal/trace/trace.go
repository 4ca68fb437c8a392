// Package trace records transaction-level events from the simulated
// platform: every D2H/D2D/H2D request with its hint, address, hit
// locations and latency. Traces support protocol debugging (the Fig. 2
// message flows become visible), workload characterization, and CSV export
// for external plotting.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/phys"
	"repro/internal/sim"
)

// Kind classifies a traced access.
type Kind uint8

// Access kinds.
const (
	D2H Kind = iota
	D2D
	H2D
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case D2H:
		return "D2H"
	case D2D:
		return "D2D"
	case H2D:
		return "H2D"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one traced access.
type Event struct {
	// Start and Done bound the access in simulated time.
	Start, Done sim.Time
	// Kind and Op describe the access (Op is the hint/op name, e.g.
	// "CS-rd" or "nt-st").
	Kind Kind
	Op   string
	// Addr is the line address.
	Addr phys.Addr
	// Where records the serving location ("HMC", "DMC", "LLC", "mem").
	Where string
}

// Latency returns the event's duration.
func (e Event) Latency() sim.Time { return e.Done - e.Start }

// Tracer receives events. Implementations must be cheap: the device emits
// one event per request.
type Tracer interface {
	Record(Event)
}

// Buffer is a bounded in-memory tracer: it keeps the most recent Cap
// events (a ring), counting everything it sees.
//
// Buffer is NOT safe for concurrent use: Record, Events, Summarize,
// WriteCSV and Reset must all run on the same goroutine (or under
// external synchronization). That contract matches its use inside a
// single simulation — the engines are single-threaded per System — but
// is silently violated the moment a buffer is shared across goroutines.
type Buffer struct {
	cap    int
	events []Event
	next   int
	total  uint64
	warm   bool
}

// NewBuffer returns a ring buffer holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Buffer{cap: capacity, events: make([]Event, 0, capacity)}
}

// Record implements Tracer.
func (b *Buffer) Record(e Event) {
	b.total++
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
		return
	}
	b.warm = true
	b.events[b.next] = e
	b.next = (b.next + 1) % b.cap
}

// Total reports how many events were recorded overall (including evicted
// ones).
func (b *Buffer) Total() uint64 { return b.total }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	if !b.warm {
		out := make([]Event, len(b.events))
		copy(out, b.events)
		return out
	}
	out := make([]Event, 0, b.cap)
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Reset discards all retained events and counters.
func (b *Buffer) Reset() {
	b.events = b.events[:0]
	b.next, b.total, b.warm = 0, 0, false
}

// WriteCSV renders the retained events as CSV with a header row.
func (b *Buffer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "start_ns,done_ns,kind,op,addr,where,latency_ns"); err != nil {
		return err
	}
	for _, e := range b.Events() {
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%s,%s,%#x,%s,%.3f\n",
			e.Start.Nanoseconds(), e.Done.Nanoseconds(), e.Kind, e.Op,
			uint64(e.Addr), e.Where, e.Latency().Nanoseconds()); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates the retained events per (kind, op, where) triple.
type Summary struct {
	Kind  Kind
	Op    string
	Where string
	Count int
	// MeanNs is the mean latency in nanoseconds.
	MeanNs float64
}

// Summarize groups the retained events.
func (b *Buffer) Summarize() []Summary {
	type key struct {
		k     Kind
		op, w string
	}
	agg := map[key]*Summary{}
	var order []key
	for _, e := range b.Events() {
		k := key{e.Kind, e.Op, e.Where}
		s, ok := agg[k]
		if !ok {
			s = &Summary{Kind: e.Kind, Op: e.Op, Where: e.Where}
			agg[k] = s
			order = append(order, k)
		}
		s.Count++
		s.MeanNs += e.Latency().Nanoseconds()
	}
	out := make([]Summary, 0, len(order))
	for _, k := range order {
		s := agg[k]
		s.MeanNs /= float64(s.Count)
		out = append(out, *s)
	}
	return out
}

// FormatSummary renders summaries as an aligned table.
func FormatSummary(sums []Summary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-8s %-6s %8s %12s\n", "kind", "op", "where", "count", "mean(ns)")
	for _, s := range sums {
		fmt.Fprintf(&sb, "%-5s %-8s %-6s %8d %12.2f\n", s.Kind, s.Op, s.Where, s.Count, s.MeanNs)
	}
	return sb.String()
}
