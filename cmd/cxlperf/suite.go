package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	cxl2sim "repro"
)

// suite renders every registered experiment section in-process, as
// `cxlbench -reps 1000 all` does: one op is one parallel render on
// GOMAXPROCS workers, checked byte for byte against a serial render made
// in set-up. The experiments, runner and workload layers do nearly all of
// the work here and almost none in the other workloads.
type suite struct {
	secs []cxl2sim.ExperimentSection
	opts cxl2sim.JobOptions
	ref  []byte
}

func setupSuite(e *env) (instance, error) {
	reps := 1000
	if e.smoke {
		reps = 20
	}
	secs := cxl2sim.ExperimentSections(reps)
	if len(secs) != len(suiteSections) {
		return nil, fmt.Errorf("registry has %d sections, the benchmark reports %d", len(secs), len(suiteSections))
	}
	for i, s := range secs {
		if s.Name != suiteSections[i] {
			return nil, fmt.Errorf("section %d is %q, the benchmark expects %q", i, s.Name, suiteSections[i])
		}
	}
	var ref bytes.Buffer
	if _, err := cxl2sim.RunExperimentSections(&ref, secs, cxl2sim.JobOptions{Workers: 1, RootSeed: e.seed}); err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	return &suite{
		secs: secs,
		opts: cxl2sim.JobOptions{Workers: e.nproc, RootSeed: e.seed},
		ref:  e.reference(ref.Bytes()),
	}, nil
}

func (s *suite) digest() string {
	h := sha256.Sum256(s.ref)
	return hex.EncodeToString(h[:])
}

func (s *suite) close() {}

func (s *suite) measure(window time.Duration, tr *tracer) phase {
	return closedLoop(window, s.opts.Workers, func() (time.Duration, float64, error) {
		var out bytes.Buffer
		out.Grow(len(s.ref))
		t0 := time.Now()
		err := s.render(&out, tr)
		d := time.Since(t0)
		if err != nil {
			return d, 0, err
		}
		if !bytes.Equal(out.Bytes(), s.ref) {
			return d, 0, fmt.Errorf("parallel render differs from the serial reference")
		}
		return d, 1, nil
	})
}

// render is one suite render. Untraced it is cxl2sim.RunExperimentSections;
// traced it runs the same steps with every Job.Run wrapped in a span and
// every Section.Render timed.
func (s *suite) render(out *bytes.Buffer, tr *tracer) error {
	if tr == nil {
		_, err := cxl2sim.RunExperimentSections(out, s.secs, s.opts)
		return err
	}
	opStart := time.Now()
	opID := tr.newID()
	runID := tr.newID()
	var jobs []cxl2sim.Job
	for _, sec := range s.secs {
		for _, j := range sec.Jobs {
			name, id, run := sec.Name, j.ID, j.Run
			jobs = append(jobs, cxl2sim.Job{ID: id, Run: func(ctx *cxl2sim.JobCtx) (any, error) {
				start := time.Now()
				v, err := run(ctx)
				tr.add(span{Parent: runID, Name: "job", Tag: name, Detail: id}, start, time.Now())
				return v, err
			}})
		}
	}
	runStart := time.Now()
	results := cxl2sim.RunJobs(jobs, s.opts)
	tr.add(span{ID: runID, Parent: opID, Name: "runner.run"}, runStart, time.Now())
	var firstErr error
	off := 0
	for _, sec := range s.secs {
		start := time.Now()
		err := sec.Render(out, results[off:off+len(sec.Jobs)])
		tr.add(span{Parent: opID, Name: "render", Tag: sec.Name}, start, time.Now())
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("section %s: %w", sec.Name, err)
		}
		off += len(sec.Jobs)
	}
	tr.add(span{ID: opID, Name: "suite.op"}, opStart, time.Now())
	return firstErr
}

// layers reports, as medians over traced ops: each section's busy time
// (the summed self time of its jobs), the render time, the longest job,
// and the share of worker time the pool sat idle.
func (s *suite) layers(tr *tracer, _ phase, m metrics) {
	ix := indexSpans(tr.snapshot())
	jobsOf := map[uint64][]span{}
	for _, j := range ix.byName["job"] {
		jobsOf[j.Parent] = append(jobsOf[j.Parent], j)
	}
	renderOf := map[uint64]float64{}
	for _, r := range ix.byName["render"] {
		renderOf[r.Parent] += float64(ix.self(r)) / 1e6
	}
	busy := map[string][]float64{}
	var render, critical, idle []float64
	for _, run := range ix.byName["runner.run"] {
		perSec := map[string]float64{}
		longest, total := 0.0, 0.0
		for _, j := range jobsOf[run.ID] {
			d := float64(ix.self(j)) / 1e6
			perSec[j.Tag] += d
			total += d
			longest = max(longest, float64(j.dur())/1e6)
		}
		for _, name := range suiteSections {
			busy[name] = append(busy[name], perSec[name])
		}
		critical = append(critical, longest)
		idle = append(idle, 1-ratio(total, float64(run.dur())/1e6*float64(s.opts.Workers)))
		render = append(render, renderOf[run.Parent])
	}
	for _, name := range suiteSections {
		m.set("experiments."+name+".busy_ms", median(busy[name]))
	}
	m.set("experiments.render_ms", median(render))
	m.set("runner.critical_job_ms", median(critical))
	m.set("runner.idle_frac", median(idle))
}
