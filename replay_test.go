package cxl2sim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	cxl2sim "repro"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// Record-and-replay tests pin the workload trace contract at the module
// boundary: the checked-in trace is the frozen request stream of the infer
// golden config, a replay of it reproduces the live run exactly, and the
// replay renders byte-identically at any worker count. Regenerate the
// trace (after an intentional workload recalibration) with:
//
//	go test . -run TraceGolden -update

const inferTracePath = "testdata/infer.trace"

// recordGoldenTrace records the stream behind TestInferGolden's config.
func recordGoldenTrace() *cxl2sim.WorkloadTrace {
	return cxl2sim.RecordInferTrace(0, cxl2sim.InferConfig{Seed: 42})
}

// TestInferTraceGolden pins the checked-in trace bytes: recording the
// golden infer config today must reproduce the file exactly. Unlike the
// rendered goldens there is no numeric tolerance — the encoding is
// canonical, so a single differing byte means the generator changed.
func TestInferTraceGolden(t *testing.T) {
	got := recordGoldenTrace().Encode()
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", "infer.trace"), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", inferTracePath)
		return
	}
	want, err := os.ReadFile(inferTracePath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recorded trace diverged from %s: %d bytes vs %d golden"+
			" (run with -update if the workload change is intended)", inferTracePath, len(got), len(want))
	}
}

// TestInferTraceReplayMatchesLive replays the checked-in trace through
// every placement scenario and requires the rows to equal live generation
// field for field — the bit-for-bit guarantee the trace format exists for.
func TestInferTraceReplayMatchesLive(t *testing.T) {
	data, err := os.ReadFile(inferTracePath)
	if err != nil {
		t.Fatalf("%v (run TestInferTraceGolden with -update to create it)", err)
	}
	tr, err := workload.DecodeTrace(data)
	if err != nil {
		t.Fatalf("checked-in trace does not decode: %v", err)
	}
	live := runRows[experiments.InferRow](experiments.InferJobs(experiments.InferConfig{Seed: 42}))
	replay := runRows[experiments.InferRow](experiments.InferJobs(experiments.InferConfig{Seed: 42, Trace: tr}))
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("replayed rows diverged from live generation:\n live   %+v\n replay %+v", live, replay)
	}
}

// TestInferTraceReplaySerialParallel renders the trace-replay infer
// section at several worker counts and against the live section: all four
// renders must be byte-identical. CI runs this under -race with
// -parallel 4, which is the issue's acceptance check.
func TestInferTraceReplaySerialParallel(t *testing.T) {
	const reps = 25
	render := func(sec cxl2sim.ExperimentSection, workers int) string {
		t.Helper()
		var buf bytes.Buffer
		if _, err := cxl2sim.RunExperimentSections(&buf, []cxl2sim.ExperimentSection{sec},
			cxl2sim.JobOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	liveSec, ok := cxl2sim.ExperimentSectionByName(cxl2sim.ExperimentSections(reps), "infer")
	if !ok {
		t.Fatal("no infer section")
	}
	live := render(liveSec, 1)

	tr := cxl2sim.RecordInferTrace(0, cxl2sim.InferConfig{Reps: reps})
	replaySec, err := dist.Spec{Kind: "section", Section: "infer", Reps: reps, Trace: tr.Encode()}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := render(replaySec, 1); got != live {
		t.Errorf("serial trace replay diverged from live section:\n live:\n%s\n replay:\n%s", live, got)
	}
	for _, workers := range []int{2, 4} {
		if got := render(replaySec, workers); got != live {
			t.Errorf("trace replay diverged at %d workers", workers)
		}
	}
}
