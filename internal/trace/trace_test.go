package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func ev(start, done sim.Time, k Kind, op, where string) Event {
	return Event{Start: start, Done: done, Kind: k, Op: op, Where: where, Addr: 0x1000}
}

func TestBufferRetainsInOrder(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 3; i++ {
		b.Record(ev(sim.Time(i), sim.Time(i+10), D2H, "CS-rd", "LLC"))
	}
	got := b.Events()
	if len(got) != 3 || got[0].Start != 0 || got[2].Start != 2 {
		t.Fatalf("events = %+v", got)
	}
	if b.Total() != 3 {
		t.Fatalf("Total = %d", b.Total())
	}
}

func TestBufferRingEviction(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 7; i++ {
		b.Record(ev(sim.Time(i), sim.Time(i+1), D2D, "NC-wr", "mem"))
	}
	got := b.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d", len(got))
	}
	// Oldest retained is event 4; order chronological.
	if got[0].Start != 4 || got[1].Start != 5 || got[2].Start != 6 {
		t.Fatalf("ring order wrong: %v %v %v", got[0].Start, got[1].Start, got[2].Start)
	}
	if b.Total() != 7 {
		t.Fatalf("Total = %d", b.Total())
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(2)
	b.Record(ev(0, 1, H2D, "ld", "mem"))
	b.Reset()
	if b.Total() != 0 || len(b.Events()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestLatency(t *testing.T) {
	e := ev(100, 350, D2H, "NC-rd", "mem")
	if e.Latency() != 250 {
		t.Fatalf("Latency = %v", e.Latency())
	}
}

func TestWriteCSV(t *testing.T) {
	b := NewBuffer(4)
	b.Record(ev(1000, 2000, D2H, "CS-rd", "LLC"))
	b.Record(ev(3000, 7000, H2D, "nt-st", "mem"))
	var sb strings.Builder
	if err := b.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "start_ns,done_ns,kind,op,addr,where,latency_ns\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "D2H,CS-rd,0x1000,LLC,1.000") {
		t.Fatalf("row missing: %q", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("row count wrong: %q", out)
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuffer(16)
	b.Record(ev(0, 100, D2H, "CS-rd", "LLC"))
	b.Record(ev(0, 300, D2H, "CS-rd", "LLC"))
	b.Record(ev(0, 50, D2D, "NC-wr", "mem"))
	sums := b.Summarize()
	if len(sums) != 2 {
		t.Fatalf("groups = %d", len(sums))
	}
	var cs *Summary
	for i := range sums {
		if sums[i].Op == "CS-rd" {
			cs = &sums[i]
		}
	}
	if cs == nil || cs.Count != 2 || cs.MeanNs != 0.2 {
		t.Fatalf("CS-rd summary = %+v", cs)
	}
	table := FormatSummary(sums)
	if !strings.Contains(table, "CS-rd") || !strings.Contains(table, "mean(ns)") {
		t.Fatalf("table = %q", table)
	}
}

func TestKindString(t *testing.T) {
	if D2H.String() != "D2H" || D2D.String() != "D2D" || H2D.String() != "H2D" {
		t.Fatal("Kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should format")
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuffer(0)
}
