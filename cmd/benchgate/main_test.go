package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: whatever
BenchmarkSchedule-8     	15881846	        75.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedule-8     	15000000	        77.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedule-8     	16000000	        73.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkRunDense-8     	22728608	        52.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig3-8         	     750	   1560000 ns/op	        212.5 CS-rd-LLC1-ns	        96.76 vs-ld-%	 5600000 B/op	    9000 allocs/op
PASS
ok  	repro/internal/sim	10.2s
`

func TestParseBenchMedians(t *testing.T) {
	recs, raw, err := readInputsFromText(benchOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Error("raw text not captured")
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	sched := recs[0]
	if sched.Name != "BenchmarkSchedule" {
		t.Errorf("proc suffix not stripped: %q", sched.Name)
	}
	if sched.Runs != 3 || sched.NsPerOp != 75.0 {
		t.Errorf("median over 3 runs = %v ns/op (%d runs), want 75.0 (3)", sched.NsPerOp, sched.Runs)
	}
	// Custom units (CS-rd-LLC1-ns etc.) must not confuse the pair walk.
	fig3 := recs[2]
	if fig3.NsPerOp != 1560000 || fig3.AllocsPerOp != 9000 {
		t.Errorf("fig3 parsed as %+v", fig3)
	}
}

func TestGateThreshold(t *testing.T) {
	base := &Baseline{Benchmarks: []Record{
		{Name: "BenchmarkSchedule", NsPerOp: 100},
		{Name: "BenchmarkRunDense", NsPerOp: 100},
	}}
	cases := []struct {
		name     string
		cur      []Record
		wantCode int
	}{
		{"improvement passes", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 80},
			{Name: "BenchmarkRunDense", NsPerOp: 90},
		}, 0},
		{"small regression passes", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 105},
			{Name: "BenchmarkRunDense", NsPerOp: 105},
		}, 0},
		{"geomean over threshold fails", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 125},
			{Name: "BenchmarkRunDense", NsPerOp: 125},
		}, 1},
		{"one bad one good averages out", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 120},
			{Name: "BenchmarkRunDense", NsPerOp: 85},
		}, 0},
		// The geomean of 130 and 76 is under +10 %, but one benchmark
		// regressing past +25 % fails on its own.
		{"one benchmark over its threshold fails", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 130},
			{Name: "BenchmarkRunDense", NsPerOp: 76},
		}, 1},
		{"one benchmark at its threshold passes", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 125},
			{Name: "BenchmarkRunDense", NsPerOp: 80},
		}, 0},
		{"nothing shared fails", []Record{
			{Name: "BenchmarkOther", NsPerOp: 10},
		}, 1},
		{"benchmark absent from the baseline fails", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 100},
			{Name: "BenchmarkRunDense", NsPerOp: 100},
			{Name: "BenchmarkOther", NsPerOp: 10},
		}, 1},
		{"benchmark dropped from the run passes", []Record{
			{Name: "BenchmarkSchedule", NsPerOp: 100},
		}, 0},
	}
	for _, tc := range cases {
		var sb strings.Builder
		if code := gate(&sb, base, tc.cur, 10, 10); code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.wantCode, sb.String())
		}
	}
}

func TestGateAllocThreshold(t *testing.T) {
	base := &Baseline{Benchmarks: []Record{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 100}, // no alloc stats in baseline
	}}
	cases := []struct {
		name     string
		cur      []Record
		wantCode int
	}{
		{"alloc regression fails even with ns/op win", []Record{
			{Name: "BenchmarkA", NsPerOp: 80, AllocsPerOp: 1200},
			{Name: "BenchmarkB", NsPerOp: 80},
		}, 1},
		{"alloc improvement passes", []Record{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 500},
			{Name: "BenchmarkB", NsPerOp: 100},
		}, 0},
		{"small alloc regression passes", []Record{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 1050},
			{Name: "BenchmarkB", NsPerOp: 100},
		}, 0},
		// Records without allocs on either side must not join the alloc
		// geomean: a baseline recorded before -benchmem carries no signal.
		{"absent alloc stats are skipped", []Record{
			{Name: "BenchmarkA", NsPerOp: 100},
			{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 9999},
		}, 0},
	}
	for _, tc := range cases {
		var sb strings.Builder
		if code := gate(&sb, base, tc.cur, 10, 10); code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.wantCode, sb.String())
		}
	}
}

func TestGateBytesThreshold(t *testing.T) {
	base := &Baseline{Benchmarks: []Record{
		{Name: "BenchmarkA", NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkB", NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkC", NsPerOp: 100}, // zero-alloc: no B/op in baseline
	}}
	cases := []struct {
		name     string
		cur      []Record
		wantCode int
	}{
		{"B/op regression fails with flat allocs/op", []Record{
			{Name: "BenchmarkA", NsPerOp: 100, BPerOp: 1300, AllocsPerOp: 10},
			{Name: "BenchmarkB", NsPerOp: 100, BPerOp: 1300, AllocsPerOp: 10},
			{Name: "BenchmarkC", NsPerOp: 100},
		}, 1},
		{"B/op improvement passes", []Record{
			{Name: "BenchmarkA", NsPerOp: 100, BPerOp: 500, AllocsPerOp: 10},
			{Name: "BenchmarkB", NsPerOp: 100, BPerOp: 900, AllocsPerOp: 10},
			{Name: "BenchmarkC", NsPerOp: 100},
		}, 0},
		{"one bad one good B/op averages out", []Record{
			{Name: "BenchmarkA", NsPerOp: 100, BPerOp: 1300, AllocsPerOp: 10},
			{Name: "BenchmarkB", NsPerOp: 100, BPerOp: 800, AllocsPerOp: 10},
			{Name: "BenchmarkC", NsPerOp: 100},
		}, 0},
		// Bytes on one side only carry no signal, like allocs/op.
		{"absent B/op is skipped", []Record{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10},
			{Name: "BenchmarkB", NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 10},
			{Name: "BenchmarkC", NsPerOp: 100, BPerOp: 99999},
		}, 0},
	}
	for _, tc := range cases {
		var sb strings.Builder
		if code := gate(&sb, base, tc.cur, 10, 10); code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.wantCode, sb.String())
		}
	}
}

// readInputsFromText feeds text through the same parse+reduce path the
// CLI uses for a file, without touching the filesystem.
func readInputsFromText(text string) ([]Record, []byte, error) {
	return reduce(parseBench(text)), []byte(text), nil
}
