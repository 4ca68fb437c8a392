package experiments

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/runner"
	"repro/internal/ycsb"
)

func jobIDs(jobs []runner.Job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// TestReportComposition: the report's jobs are the registry's own fig3–fig6
// sections followed by Table IV, and full appends the Fig. 8 workload-A
// co-simulations (enumerated only, never run here).
func TestReportComposition(t *testing.T) {
	var want []string
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6"} {
		sec, ok := Lookup(name, SectionOptions{})
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		want = append(want, jobIDs(sec.Jobs)...)
	}
	want = append(want, jobIDs(Table4Jobs())...)
	if got := jobIDs(Report(false).Jobs); !slices.Equal(got, want) {
		t.Errorf("Report(false) jobs = %v\nwant %v", got, want)
	}
	a := []ycsb.Workload{ycsb.A}
	want = append(want, jobIDs(Fig8Jobs("zswap", a, Fig8Config{}))...)
	want = append(want, jobIDs(Fig8Jobs("ksm", a, Fig8Config{}))...)
	if got := jobIDs(Report(true).Jobs); !slices.Equal(got, want) {
		t.Errorf("Report(true) jobs = %v\nwant %v", got, want)
	}
}

// TestReportRenderFailsWithoutWriting: one failed job fails the render
// with that job's error and leaves the writer untouched, even though every
// earlier part could have rendered.
func TestReportRenderFailsWithoutWriting(t *testing.T) {
	sec := Report(false)
	results := runner.Run(sec.Jobs, runner.Options{Workers: 1})
	var ok bytes.Buffer
	if err := sec.Render(&ok, results); err != nil || ok.Len() == 0 {
		t.Fatalf("clean render: %d bytes, err %v", ok.Len(), err)
	}

	boom := errors.New("boom")
	last := len(results) - 1
	results[last].Value, results[last].Err = nil, boom
	var buf bytes.Buffer
	if err := sec.Render(&buf, results); !errors.Is(err, boom) {
		t.Fatalf("Render error = %v, want the failed job's %v", err, boom)
	}
	if buf.Len() != 0 {
		t.Fatalf("Render wrote %d bytes before failing:\n%s", buf.Len(), buf.Bytes())
	}
}
