// Command cxlperf is the repository's benchmark: five workloads that
// together exercise every layer of the simulator, each reported through
// end-to-end metrics (what a user waits for) and, in a separate traced run,
// per-layer metrics (where the time went).
//
//	suite            every experiment section rendered in-process
//	access           a seeded D2H/D2D/H2D stream through cxl2sim.System
//	cluster          one 8-replica cluster.Run per op, inline
//	serve            hot keys and misses against an in-process cxlsimd
//	serve-dist       misses against a coordinator and 2 dist workers
//
// Each op's output is checked: against a serial in-process reference built
// during set-up on every run, and against the digests pinned in digests.go
// on the default seed. Any mismatch fails the op and the exit status.
//
// Usage:
//
//	cxlperf [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	        [-trace-out FILE] [-scale full|smoke]
//
// Without -workload, cxlperf runs all five, each in a child process of its
// own so memory high-water marks and GC state do not leak between them.
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. See README.md for the metric definitions.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the pinned digests were taken at; it equals the
// runner's default root seed, so the suite workload at this seed renders
// what `cxlbench -reps 1000 all` prints.
const defaultSeed = 1

// workload is one benchmark input set.
type workload struct {
	name string
	// setup builds everything the measured ops need: references, servers,
	// warmed caches. Its time is setup_s, never part of an op.
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// digest is the SHA-256 of the reference outputs built in set-up, in
	// hex; on the default seed it must equal the pinned value.
	digest() string
	// measure runs ops for window and checks each one's output. tr is nil
	// for the untraced run.
	measure(window time.Duration, tr *tracer) phase
	// layers derives the per-layer metrics from a traced phase.
	layers(tr *tracer, traced phase, m metrics)
	close()
}

var workloads = []workload{
	{name: "suite", setup: setupSuite},
	{name: "access", setup: setupAccess},
	{name: "cluster", setup: setupCluster},
	{name: "serve", setup: setupServe},
	{name: "serve-dist", setup: setupServeDist},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what set-up needs to know about the run.
type env struct {
	seed  int64
	smoke bool
	nproc int
	log   io.Writer
	// corrupt flips one byte of the first reference built in set-up: the
	// planted fault that proves the output checks can fail.
	corrupt bool
}

// pinned reports whether the run's references are compared with the
// pinned digests: only the default seed at full scale has one.
func (e *env) pinned() bool { return e.seed == defaultSeed && !e.smoke }

// reference returns ref, or a copy with one byte flipped under the
// planted fault.
func (e *env) reference(ref []byte) []byte {
	if !e.corrupt || len(ref) == 0 {
		return ref
	}
	e.corrupt = false
	c := append([]byte(nil), ref...)
	c[len(c)/2] ^= 0x20
	return c
}

// phase is one measured stretch of ops.
type phase struct {
	// latMs is each op's latency.
	latMs []float64
	// work is what ops_per_s counts: renders, simulated accesses,
	// correct responses.
	work              float64
	attempted, failed int
	errs              []string

	// calMs is latMs at the reference speed (see calib.go).
	calMs []float64
	// factor scales the phase's other host times to the reference speed:
	// the median over ops of calMs/latMs.
	factor float64

	// Service requests only: responses shed with 429, and correct
	// responses within the workload's latency objective.
	shed, sloMet int
}

// latencyMs is the median op latency at the reference speed.
func (ph *phase) latencyMs() float64 { return median(ph.calMs) }

// opsPerSec is the work rate at the reference speed.
func (ph *phase) opsPerSec() float64 { return ratio(ph.work, sum(ph.calMs)/1e3) }

func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// closedLoop runs op back to back until window has passed, with speed
// probes between ops. op reports the host time of the part that is
// measured (set-up between passes is not), the work it did, and an error
// when its output is wrong. A panicking op counts as failed.
func closedLoop(window time.Duration, width int, op func() (time.Duration, float64, error)) phase {
	var ph phase
	sp := speed{width: width}
	var starts []time.Time
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		sp.maybeProbe()
		starts = append(starts, time.Now())
		d, work, err := safeOp(op)
		ph.attempted++
		ph.latMs = append(ph.latMs, ms(d))
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.work += work
	}
	sp.probeNow()
	ph.calMs, ph.factor = sp.calibrate(starts, ph.latMs)
	return ph
}

func safeOp(op func() (time.Duration, float64, error)) (d time.Duration, work float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op()
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false)) }

// run is the command; corrupt plants the reference fault (tests only).
func run(args []string, stdout, stderr io.Writer, corrupt bool) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("cxlperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs all five, each in a child process")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; pinned digests are checked only at the default")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload (BENCHMARK.json's run_seconds)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default: cxlperf-WORKLOAD.trace.jsonl in the temp dir)")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke for small inputs (digests unchecked)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "cxlperf: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.scale != "full" && o.scale != "smoke" {
		fmt.Fprintf(stderr, "cxlperf: unknown -scale %q (full, smoke)\n", o.scale)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "cxlperf: -seconds must be positive")
		return 2
	}
	if o.workload == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "cxlperf: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runWorkload(w, o, stderr, corrupt)
	if err != nil {
		fmt.Fprintf(stderr, "cxlperf: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, w.name, res)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload sets w up several times (setup_s is the median), then
// measures: the untraced run reports the end-to-end metrics; the traced
// run measures an untraced half and a traced half and reports the
// per-layer metrics.
func runWorkload(w workload, o options, log io.Writer, corrupt bool) (resultJSON, error) {
	e := &env{seed: o.seed, smoke: o.scale == "smoke", nproc: runtime.GOMAXPROCS(0), log: log, corrupt: corrupt}
	setups := 5
	if e.smoke {
		setups = 1
	}
	var inst instance
	var setupS []float64
	var setupSpeed speed
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		e.corrupt = corrupt // each set-up builds its own references
		setupSpeed.probeNow()
		t0 := time.Now()
		var err error
		inst, err = w.setup(e)
		if err != nil {
			return resultJSON{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setupSpeed.probeNow()
		setupS = append(setupS, d.Seconds()*setupSpeed.factorAt(t0))
	}
	defer inst.close()

	correct := true
	got := inst.digest()
	fmt.Fprintf(log, "cxlperf: %s: reference digest %s (seed %d)\n", w.name, got, o.seed)
	if want := pinnedDigests[w.name]; e.pinned() && got != want {
		fmt.Fprintf(log, "cxlperf: %s: DIGEST MISMATCH: want %s\n", w.name, want)
		correct = false
	}

	window := time.Duration(o.seconds * float64(time.Second))
	m := metrics{}
	var phases []phase
	var defs []metricDef
	if !o.trace {
		mem := sampleMemory()
		ph := inst.measure(window, nil)
		memMB := mem.end()
		phases = append(phases, ph)
		fmt.Fprintf(log, "cxlperf: %s: speed probe %.3f ms at set-up (reference %.3f ms), ops scaled by %.3f, raw latency p50 %.4g ms\n",
			w.name, setupSpeed.medianMs(), probeRefMs, ph.factor, median(ph.latMs))
		m.set("setup_s", median(setupS))
		m.set("ops_per_s", ph.opsPerSec())
		m.set("latency_ms_p50", ph.latencyMs())
		m.set("mem_mb_p50", median(memMB))
		defs = endToEndMetrics
	} else {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plain := inst.measure(window/2, nil)
		runtime.ReadMemStats(&after)
		ops := float64(max(plain.attempted, 1))
		m.set("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/ops)
		m.set("runtime.gc_per_op", float64(after.NumGC-before.NumGC)/ops)

		tr := newTracer()
		traced := inst.measure(window/2, tr)
		phases = append(phases, plain, traced)
		m.set("trace.overhead_frac", ratio(traced.latencyMs(), plain.latencyMs())-1)
		m.set("calib.probe_ms", setupSpeed.medianMs())
		m.set("calib.raw_latency_ms_p50", median(plain.latMs))
		rss, err := peakRSSMB()
		if err != nil {
			return resultJSON{}, err
		}
		m.set("runtime.peak_rss_mb", rss)
		// Layer host times scale to the reference speed like the
		// end-to-end ones; simulated times and counts do not.
		unit := map[string]string{}
		for _, d := range perLayerMetrics {
			unit[d.name] = d.unit
		}
		lm := metrics{}
		inst.layers(tr, traced, lm)
		for name, v := range lm {
			if u := unit[name]; u == "ms" || u == "us" || u == "ns" {
				v *= traced.factor
			}
			m.set(name, v)
		}
		m.set("client.ops", float64(plain.attempted))
		if pm, v, ok := tail(plain.calMs); ok {
			m.set("client.tail_pct", float64(pm)/10)
			m.set("client.latency_ms_tail", v)
		}
		path := o.traceOut
		if path == "" {
			path = filepath.Join(os.TempDir(), "cxlperf-"+w.name+".trace.jsonl")
		}
		if err := tr.write(path); err != nil {
			return resultJSON{}, err
		}
		fmt.Fprintf(log, "cxlperf: %s: spans written to %s\n", w.name, path)
		defs = perLayerMetrics
	}

	res := resultJSON{Correct: correct}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, msg := range ph.errs {
			fmt.Fprintf(log, "cxlperf: %s: FAILED: %s\n", w.name, msg)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	var err error
	res.Metrics, err = m.emit(defs)
	return res, err
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(w io.Writer, name string, res resultJSON) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", name, n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%-16s attempted=%d failed=%d failed_frac=%.4g correct=%v\n",
		name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// runAll runs every workload in a child process of its own (the same
// binary with -workload NAME), one after another so they never share the
// CPUs, and prints one combined result whose metric names are prefixed
// with the workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "cxlperf:", err)
		return 1
	}
	all := resultJSON{Correct: true, Metrics: map[string]valueJSON{}}
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		// The workload flag goes last so it overrides any in args.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			code = 1
		}
		var res resultJSON
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			fmt.Fprintf(stderr, "cxlperf: %s: no result: %v\n", w.name, err)
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, v := range res.Metrics {
			all.Metrics[w.name+"."+n] = v
		}
	}
	b, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(b))
	return code
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
