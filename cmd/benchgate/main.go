// Command benchgate is the perf-CI gate: it parses `go test -bench`
// text output, reduces each benchmark to its median over repeated runs
// (-count=N), and compares ns/op, allocs/op and B/op against a committed
// JSON baseline. The build fails when the geometric-mean ns/op ratio across
// shared benchmarks regresses by more than -threshold percent, any one
// shared benchmark's ns/op regresses by more than 25 percent, or the
// geomean allocs/op or B/op ratio (each over benchmarks that report it
// on both sides) regresses by more than -alloc-threshold percent —
// separate gates, so an allocation regression cannot hide behind a
// wall-clock win on a noisy runner, nor one model benchmark's regression
// behind many fast micro-benchmarks. A benchmark in the run but absent
// from the baseline fails too: an ungated benchmark must be added with
// -update, not slip in unmeasured.
//
// The committed baseline has two forms, written together by -update:
// the JSON this tool gates against, and the raw `go test -bench` text
// (testdata/bench/BENCH_core.txt) that benchstat consumes for the
// human-readable comparison in CI logs.
//
// Usage:
//
//	go test -bench=. -benchmem -count=6 ./internal/sim > cur.txt
//	benchgate cur.txt                      # gate against BENCH_core.json
//	benchgate -update cur.txt              # re-baseline (json + raw text)
//	benchgate -json out.json cur.txt       # also dump current medians
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed BENCH_core.json schema.
type Baseline struct {
	Note       string   `json:"note"`
	Benchmarks []Record `json:"benchmarks"`
}

// Record is one benchmark's median stats.
type Record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	baseline := flag.String("baseline", "BENCH_core.json", "committed baseline JSON to gate against")
	raw := flag.String("raw", filepath.Join("testdata", "bench", "BENCH_core.txt"), "committed raw bench text (benchstat old side), written by -update")
	threshold := flag.Float64("threshold", 10, "max allowed geomean ns/op regression, percent")
	allocThreshold := flag.Float64("alloc-threshold", 10, "max allowed geomean allocs/op and B/op regression, percent")
	update := flag.Bool("update", false, "rewrite -baseline and -raw from the input instead of gating")
	jsonOut := flag.String("json", "", "also write the current run's medians as JSON to this path")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchgate [-baseline JSON] [-threshold PCT] [-update] [bench-output.txt ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cur, rawText, err := readInputs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 1
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no Benchmark lines in input")
		return 1
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cur, "medians of this run, written by benchgate -json"); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 1
		}
	}

	if *update {
		note := "perf-CI baseline: medians over repeated runs; regenerate with benchgate -update (see DESIGN.md)"
		if err := writeJSON(*baseline, cur, note); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 1
		}
		if err := os.MkdirAll(filepath.Dir(*raw), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 1
		}
		if err := os.WriteFile(*raw, rawText, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 1
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks) and %s\n", *baseline, len(cur), *raw)
		return 0
	}

	base, err := loadBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 1
	}
	return gate(os.Stdout, base, cur, *threshold, *allocThreshold)
}

// benchThresholdPct is the largest ns/op regression any one benchmark may
// show, so one model benchmark cannot regress behind many fast
// micro-benchmarks that dominate the geomean.
const benchThresholdPct = 25.0

// geomean accumulates the log ratios of one stat over the benchmarks
// that report it on both sides.
type geomean struct {
	logSum float64
	n      int
}

// add joins base→cur to the mean when both are positive (zero-alloc and
// pre-benchmem baseline records carry no signal about allocation
// behavior) and returns the column text for the delta table.
func (g *geomean) add(base, cur float64) string {
	if base <= 0 || cur <= 0 {
		return "-"
	}
	r := cur / base
	g.logSum += math.Log(r)
	g.n++
	return fmt.Sprintf("%+.1f%%", 100*(r-1))
}

// check prints the geomean line for stat and reports whether it is within
// limitPct; a stat no shared benchmark reports passes.
func (g *geomean) check(w io.Writer, stat string, limitPct float64) bool {
	if g.n == 0 {
		return true
	}
	pct := 100 * (math.Exp(g.logSum/float64(g.n)) - 1)
	fmt.Fprintf(w, "%s geomean over %d benchmarks: %+.1f%% (threshold +%.0f%%)\n", stat, g.n, pct, limitPct)
	if pct > limitPct {
		fmt.Fprintf(w, "benchgate: FAIL: geomean %s regression exceeds threshold\n", stat)
		return false
	}
	return true
}

// gate prints a per-benchmark delta table and returns the exit code:
// non-zero when a benchmark is absent from the baseline, the geomean
// ns/op ratio exceeds thresholdPct, any one benchmark's ns/op ratio
// exceeds benchThresholdPct, or the geomean allocs/op or B/op ratio
// exceeds allocThresholdPct.
func gate(w io.Writer, base *Baseline, cur []Record, thresholdPct, allocThresholdPct float64) int {
	baseBy := make(map[string]Record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	var ns, allocs, bytes geomean
	var added int
	var slow []string
	fmt.Fprintf(w, "%-40s %14s %14s %8s %10s %10s\n", "benchmark", "base ns/op", "cur ns/op", "delta", "allocs Δ", "B Δ")
	for _, c := range cur {
		b, ok := baseBy[c.Name]
		if !ok || b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-40s %14s %14.1f %8s\n", c.Name, "-", c.NsPerOp, "new")
			added++
			continue
		}
		nsCol := ns.add(b.NsPerOp, c.NsPerOp)
		if pct := 100 * (c.NsPerOp/b.NsPerOp - 1); pct > benchThresholdPct {
			slow = append(slow, fmt.Sprintf("%s %+.1f%%", c.Name, pct))
		}
		allocCol := allocs.add(b.AllocsPerOp, c.AllocsPerOp)
		bytesCol := bytes.add(b.BPerOp, c.BPerOp)
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %8s %10s %10s\n", c.Name, b.NsPerOp, c.NsPerOp, nsCol, allocCol, bytesCol)
		delete(baseBy, c.Name)
	}
	for name := range baseBy {
		fmt.Fprintf(w, "%-40s %14.1f %14s %8s\n", name, baseBy[name].NsPerOp, "-", "gone")
	}
	if ns.n == 0 {
		fmt.Fprintln(w, "benchgate: FAIL: no benchmarks shared with the baseline")
		return 1
	}
	code := 0
	if added > 0 {
		fmt.Fprintf(w, "benchgate: FAIL: %d benchmark(s) absent from the baseline (add them with -update)\n", added)
		code = 1
	}
	if !ns.check(w, "ns/op", thresholdPct) {
		code = 1
	}
	if len(slow) > 0 {
		fmt.Fprintf(w, "benchgate: FAIL: ns/op regression over +%.0f%%: %s\n", benchThresholdPct, strings.Join(slow, ", "))
		code = 1
	}
	if !allocs.check(w, "allocs/op", allocThresholdPct) {
		code = 1
	}
	if !bytes.check(w, "B/op", allocThresholdPct) {
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(w, "benchgate: ok")
	}
	return code
}

// readInputs parses every named file (stdin when none) and returns the
// per-benchmark medians plus the concatenated raw text for -update.
func readInputs(paths []string) ([]Record, []byte, error) {
	var rawText []byte
	read := func(r io.Reader, name string) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rawText = append(rawText, data...)
		return nil
	}
	if len(paths) == 0 {
		if err := read(os.Stdin, "stdin"); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, nil, err
		}
		err = read(f, p)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	return reduce(parseBench(string(rawText))), rawText, nil
}

// reduce groups samples by benchmark name (first-seen order) and takes
// the median of each stat — robust to the odd noisy run in a -count=N
// series where a mean would not be.
func reduce(all []sample) []Record {
	samples := map[string][]sample{}
	var order []string
	for _, s := range all {
		if _, seen := samples[s.name]; !seen {
			order = append(order, s.name)
		}
		samples[s.name] = append(samples[s.name], s)
	}
	recs := make([]Record, 0, len(order))
	for _, name := range order {
		ss := samples[name]
		recs = append(recs, Record{
			Name:        name,
			NsPerOp:     median(ss, func(s sample) float64 { return s.nsPerOp }),
			BPerOp:      median(ss, func(s sample) float64 { return s.bPerOp }),
			AllocsPerOp: median(ss, func(s sample) float64 { return s.allocsPerOp }),
			Runs:        len(ss),
		})
	}
	return recs
}

// sample is one parsed `BenchmarkX-N ...` line.
type sample struct {
	name                         string
	nsPerOp, bPerOp, allocsPerOp float64
}

// procSuffix strips the -GOMAXPROCS suffix so baselines recorded on one
// core count compare against runs on another.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark result lines from `go test -bench`
// text output. Lines it does not recognize are ignored, so the full
// test output (PASS, ok, custom-metric units) can be piped in whole.
func parseBench(text string) []sample {
	var out []sample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		s := sample{name: procSuffix.ReplaceAllString(f[0], "")}
		ok := false
		// f[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				s.nsPerOp, ok = v, true
			case "B/op":
				s.bPerOp = v
			case "allocs/op":
				s.allocsPerOp = v
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func median(ss []sample, field func(sample) float64) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = field(s)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func writeJSON(path string, recs []Record, note string) error {
	data, err := json.MarshalIndent(Baseline{Note: note, Benchmarks: recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
