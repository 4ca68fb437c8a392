package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the tests
// hold the command to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runSmoke runs one workload at smoke scale in-process and returns its
// exit code and parsed result.
func runSmoke(t *testing.T, workload string, trace int, seconds float64, corrupt bool) (int, resultJSON) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-scale", "smoke", "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-trace-out", filepath.Join(t.TempDir(), "spans.jsonl")}
	code := run(args, &stdout, &stderr, corrupt)
	var res resultJSON
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		t.Fatalf("%s: no result line (exit %d): %v\nstderr:\n%s", workload, code, err, stderr.String())
	}
	return code, res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmokeEveryMetric runs every benchmarked workload untraced and
// traced at smoke scale and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, and that its outputs check out.
func TestSmokeEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a cxlperf workload", w.Name)
		}
		names = append(names, w.Name)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range names {
		for trace := 0; trace <= 1; trace++ {
			code, res := runSmoke(t, w, trace, 0.2, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, correct %v, %d/%d failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s not emitted", w, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%d: metric %s in %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				}
				if !metricName.MatchString(name) {
					t.Errorf("invalid metric name %q", name)
				}
			}
			if trace == 0 {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, name, v.Value)
					}
				}
			}
		}
	}
}

// TestPlantedCorruption flips one byte of a set-up reference and expects
// every workload to notice: failed ops and exit status 1.
func TestPlantedCorruption(t *testing.T) {
	for _, w := range workloads {
		seconds := 0.2
		if w.name == "serve" {
			// The flipped hot key draws 1 request in 23; a second of
			// requests draws it many times over.
			seconds = 1
		}
		code, res := runSmoke(t, w.name, 0, seconds, true)
		if code != 1 || res.Failed == 0 || res.Correct {
			t.Errorf("%s: corrupted reference gave exit %d, %d/%d failed, correct %v",
				w.name, code, res.Failed, res.Attempted, res.Correct)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: percentile must sort
	}
	for _, c := range []struct {
		perMille int
		want     float64
	}{{500, 500}, {990, 990}, {999, 999}, {1000, 1000}, {1, 1}} {
		if got := percentile(xs, c.perMille); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", float64(c.perMille)/10, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	if got := percentile([]float64{7}, 990); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

// TestTailNeedsTenBeyond checks the rule that a reported percentile has
// at least ten samples above it.
func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		perMille int
		ok       bool
	}{
		{10000, 999, true}, // 10 beyond p99.9
		{9999, 990, true},  // p99.9 would leave 9
		{1000, 990, true},  // exactly 10 beyond p99
		{999, 980, true},   // p99 would leave 9
		{600, 980, true},
		{100, 900, true},
		{20, 500, true},
		{19, 0, false},
	} {
		pm, v, ok := tail(seq(c.n))
		if ok != c.ok || pm != c.perMille {
			t.Errorf("tail of %d samples = p%v (ok %v), want p%v (ok %v)",
				c.n, float64(pm)/10, ok, float64(c.perMille)/10, c.ok)
			continue
		}
		if ok && beyond(c.n, pm) < minBeyond {
			t.Errorf("tail of %d samples leaves %d beyond", c.n, beyond(c.n, pm))
		}
		if ok && v != percentile(seq(c.n), pm) {
			t.Errorf("tail value %v, percentile %v", v, percentile(seq(c.n), pm))
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 30}, {20, 50}, {60, 70}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"adjacent", []interval{{10, 20}, {20, 30}}, 80},
		{"sticking out", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 120}, {-5, 0}}, 100},
		{"covering", []interval{{0, 60}, {40, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestClosedLoopCountsFailures: an op that errors or panics counts as
// attempted and failed, keeps its latency, and adds no work.
func TestClosedLoopCountsFailures(t *testing.T) {
	n := 0
	ph := closedLoop(50*time.Millisecond, 1, func() (time.Duration, float64, error) {
		n++
		switch n {
		case 1:
			return time.Millisecond, 0, fmt.Errorf("wrong output")
		case 2:
			panic("boom")
		}
		return time.Millisecond, 3, nil
	})
	if ph.attempted != n || ph.failed != 2 || ph.work != float64(3*(n-2)) {
		t.Errorf("attempted %d failed %d work %v after %d ops; want %d 2 %d", ph.attempted, ph.failed, ph.work, n, n, 3*(n-2))
	}
	if len(ph.latMs) != n || len(ph.calMs) != n || len(ph.errs) != 2 {
		t.Errorf("%d latencies, %d calibrated, %d errors for %d ops", len(ph.latMs), len(ph.calMs), len(ph.errs), n)
	}
}
