package experiments

import (
	"math"
	"strings"
	"testing"
)

// The workload section's own contract: deterministic rows, a replay row
// that reproduces its recorded source exactly, and cohort shares that
// account for every request.

func workloadArrivalRows(rows []WorkloadRow) map[string]WorkloadRow {
	m := map[string]WorkloadRow{}
	for _, r := range rows {
		if r.Kind == "arrival" {
			m[r.Name] = r
		}
	}
	return m
}

func TestWorkloadSectionRows(t *testing.T) {
	rows := runRows[WorkloadRow](WorkloadJobs(25))
	arr := workloadArrivalRows(rows)
	for _, name := range []string{"poisson", "diurnal", "diurnal+burst", "replay(burst)"} {
		r, ok := arr[name]
		if !ok {
			t.Fatalf("missing arrival row %q", name)
		}
		if r.Requests == 0 || r.SpanSec <= 0 || r.MeanRate <= 0 || r.PeakRate <= 0 {
			t.Errorf("%s: degenerate row %+v", name, r)
		}
		if len(r.TraceHash) != 16 {
			t.Errorf("%s: trace hash %q not 16 hex digits", name, r.TraceHash)
		}
	}
	// The replay row is the record/replay contract rendered: it must equal
	// the row of the stream it replays, content hash included.
	if arr["replay(burst)"] != workloadRowRenamed(arr["diurnal+burst"], "replay(burst)") {
		t.Errorf("replay row diverged from its source:\n source %+v\n replay %+v",
			arr["diurnal+burst"], arr["replay(burst)"])
	}
	var share float64
	cohorts := 0
	for _, r := range rows {
		if r.Kind == "cohort" {
			cohorts++
			share += r.SharePct
			if r.MeanPrompt <= 0 || r.MeanDecode <= 0 {
				t.Errorf("cohort %s: degenerate shapes %+v", r.Name, r)
			}
		}
	}
	if cohorts != 3 {
		t.Fatalf("%d cohort rows, want 3", cohorts)
	}
	if math.Abs(share-100) > 1e-9 {
		t.Errorf("cohort shares sum to %v, want 100", share)
	}
}

func workloadRowRenamed(r WorkloadRow, name string) WorkloadRow {
	r.Name = name
	return r
}

func TestWorkloadSectionDeterministic(t *testing.T) {
	a := runRows[WorkloadRow](WorkloadJobs(25))
	b := runRows[WorkloadRow](WorkloadJobs(25))
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWorkloadPrinterRendersBothTables(t *testing.T) {
	var sb strings.Builder
	printWorkload(&sb, runRows[WorkloadRow](WorkloadJobs(20)))
	out := sb.String()
	for _, want := range []string{"temporal arrival models", "cohort mixture", "replay(burst)", "chat"} {
		if !strings.Contains(out, want) {
			t.Errorf("workload render missing %q", want)
		}
	}
}
