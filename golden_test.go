package cxl2sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	cxl2sim "repro"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// Golden-file tests pin the rendered output of the report generator and
// the experiment printers. The comparison is structural: the non-numeric
// text must match exactly, while numeric tokens only have to agree within
// a tolerance, so a timing-parameter recalibration that nudges a latency
// by a few percent does not invalidate every golden file. Regenerate with:
//
//	go test . -run Golden -update

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// runRows runs jobs serially under the default root seed and collects
// their rows.
func runRows[T any](jobs []runner.Job) []T {
	return experiments.Rows[T](runner.Run(jobs, runner.Options{Workers: 1}))
}

const (
	// goldenRelTol is the per-number relative tolerance; goldenAbsTol
	// covers values near zero, where a relative bound is meaningless.
	goldenRelTol = 0.25
	goldenAbsTol = 2.0
)

// goldenNum matches numeric tokens, including the negative sign (both
// ASCII '-' and the typographic '−' the report uses in paper columns).
var goldenNum = regexp.MustCompile(`[-−]?[0-9]+(?:\.[0-9]+)?`)

// checkGolden compares got against testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if err := compareTolerant(string(wantBytes), got); err != nil {
		t.Fatalf("output diverged from %s: %v\n(run with -update if the change is intended)", path, err)
	}
}

// checkExact compares got byte for byte against the file at path, or
// rewrites it under -update.
func checkExact(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		wl, gl := splitLines(string(want)), splitLines(got)
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Fatalf("output diverged from %s at line %d:\n  want: %s\n  got:  %s\n(run with -update if the change is intended)", path, i+1, w, g)
			}
		}
		t.Fatalf("output diverged from %s", path)
	}
}

// compareTolerant checks that got matches want line by line: identical
// text shape, numbers within tolerance.
func compareTolerant(want, got string) error {
	wl := splitLines(want)
	gl := splitLines(got)
	if len(wl) != len(gl) {
		return fmt.Errorf("line count changed: golden %d, got %d", len(wl), len(gl))
	}
	for i := range wl {
		wShape := goldenNum.ReplaceAllString(wl[i], "#")
		gShape := goldenNum.ReplaceAllString(gl[i], "#")
		if wShape != gShape {
			return fmt.Errorf("line %d text changed:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
		wNums := goldenNum.FindAllString(wl[i], -1)
		gNums := goldenNum.FindAllString(gl[i], -1)
		for j := range wNums {
			a, b := parseGoldenNum(wNums[j]), parseGoldenNum(gNums[j])
			if !withinTolerance(a, b) {
				return fmt.Errorf("line %d number %d out of tolerance: golden %v, got %v\n  golden: %s\n  got:    %s",
					i+1, j+1, wNums[j], gNums[j], wl[i], gl[i])
			}
		}
	}
	return nil
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

func parseGoldenNum(s string) float64 {
	neg := false
	for len(s) > 0 && (s[0] == '-' || s[0] == 0xE2) { // 0xE2 starts UTF-8 '−'
		if s[0] == '-' {
			s = s[1:]
		} else {
			s = s[3:]
		}
		neg = true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(fmt.Sprintf("golden: unparseable number %q", s))
	}
	if neg {
		v = -v
	}
	return v
}

func withinTolerance(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= goldenAbsTol {
		return true
	}
	return diff/math.Max(math.Abs(a), math.Abs(b)) <= goldenRelTol
}

// TestReportGolden pins `report` (the microbenchmark half; Fig. 8 is
// exercised by its own calibration tests and too slow for a golden run).
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := cxl2sim.WriteReportOpts(&buf, cxl2sim.ReportOptions{Reps: 50, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden", buf.String())
}

// TestTable3Golden pins the coherence-state table: it is fully categorical
// (cache states, no timing), so any drift is a semantics change.
func TestTable3Golden(t *testing.T) {
	var buf bytes.Buffer
	experiments.PrintTable3(&buf, runRows[experiments.Table3Row](experiments.Table3Jobs()))
	checkGolden(t, "table3.golden", buf.String())
}

// TestWriteQueueSweepGolden pins the §V-A write-queue sweep rendering.
func TestWriteQueueSweepGolden(t *testing.T) {
	var buf bytes.Buffer
	experiments.PrintWriteQueueSweep(&buf,
		runRows[experiments.WriteQueueRow](experiments.WriteQueueSweepJobs([]int{1, 8, 64})))
	checkGolden(t, "writequeue.golden", buf.String())
}

// TestInferGolden pins the LLM-serving KV-placement section: the table
// shape is exact, the numbers tolerant — but the tolerance still rejects
// a tier-ordering flip (PCIe TPOT is an order of magnitude above DRAM).
func TestInferGolden(t *testing.T) {
	var buf bytes.Buffer
	experiments.PrintInfer(&buf, runRows[experiments.InferRow](experiments.InferJobs(experiments.InferConfig{Seed: 42})))
	checkGolden(t, "infer.golden", buf.String())
}

// TestSectionsExactGolden renders every cxlbench section at the paper's
// 1000 repetitions on one worker and requires the committed results file
// byte for byte: the tolerant goldens above would let a refactor shift a
// Fig. 3–5 number by 20% unnoticed.
func TestSectionsExactGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := cxl2sim.RunExperimentSections(&buf, cxl2sim.ExperimentSections(1000), cxl2sim.JobOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	checkExact(t, filepath.Join("docs", "results-cxlbench.txt"), buf.String())
}

// measureSupported reports whether the §V microbenchmark API serves the
// combination; the rest must be rejected with an error (see
// TestMicrobenchAPI).
func measureSupported(dt cxl2sim.DeviceType, kind, op string, place cxl2sim.Placement) bool {
	switch kind {
	case "d2h":
		return dt == cxl2sim.Type2 && place != cxl2sim.PlaceDMC
	case "d2d":
		return dt == cxl2sim.Type2 && op != "NC-P" && (place == cxl2sim.PlaceCold || place == cxl2sim.PlaceDMC)
	default:
		return place != cxl2sim.PlaceHMC && (dt == cxl2sim.Type2 || place == cxl2sim.PlaceCold)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestMeasureGolden pins System.MeasureD2H/D2D/H2D exactly, with no
// tolerance, over every supported (kind, op, placement, device type)
// combination, each on a fresh system.
func TestMeasureGolden(t *testing.T) {
	d2hOps, hostOps := sortedKeys(cxl2sim.D2HOpNames), sortedKeys(cxl2sim.HostOpNames)
	spec := func(place cxl2sim.Placement) cxl2sim.MeasureSpec {
		return cxl2sim.MeasureSpec{Reps: 50, Place: place}
	}
	var buf bytes.Buffer
	for _, dt := range []cxl2sim.DeviceType{cxl2sim.Type2, cxl2sim.Type3} {
		for _, place := range []cxl2sim.Placement{cxl2sim.PlaceCold, cxl2sim.PlaceLLC, cxl2sim.PlaceHMC, cxl2sim.PlaceDMC} {
			for _, kind := range []string{"d2h", "d2d", "h2d"} {
				ops := d2hOps
				if kind == "h2d" {
					ops = hostOps
				}
				for _, op := range ops {
					if !measureSupported(dt, kind, op, place) {
						continue
					}
					s := cxl2sim.MustNewSystem(cxl2sim.Config{DeviceType: dt, LLCBytes: 4 << 20, LLCWays: 16, Cores: 8})
					var m cxl2sim.Measurement
					var err error
					switch kind {
					case "d2h":
						m, err = s.MeasureD2H(cxl2sim.D2HOpNames[op], spec(place))
					case "d2d":
						m, err = s.MeasureD2D(cxl2sim.D2HOpNames[op], spec(place))
					default:
						m, err = s.MeasureH2D(cxl2sim.HostOpNames[op], spec(place))
					}
					if err != nil {
						t.Fatalf("%v %s %s %v: %v", dt, kind, op, place, err)
					}
					fmt.Fprintf(&buf, "%v %s %s %v %+v\n", dt, kind, op, place, m)
				}
			}
		}
	}
	checkExact(t, filepath.Join("testdata", "measure.golden"), buf.String())
}

// TestGoldenComparatorRejectsDrift guards the comparator itself: exact
// text changes and out-of-tolerance numbers must both fail.
func TestGoldenComparatorRejectsDrift(t *testing.T) {
	if err := compareTolerant("lat 100.0 ns", "lat 110.0 ns"); err != nil {
		t.Errorf("10%% drift should pass: %v", err)
	}
	if err := compareTolerant("lat 100.0 ns", "lat 200.0 ns"); err == nil {
		t.Error("2x drift passed")
	}
	if err := compareTolerant("lat 100.0 ns", "bw 100.0 ns"); err == nil {
		t.Error("text change passed")
	}
	if err := compareTolerant("a\nb", "a"); err == nil {
		t.Error("missing line passed")
	}
	if err := compareTolerant("x −64 %", "x −64 %"); err != nil {
		t.Errorf("typographic minus: %v", err)
	}
}
