// Package dist distributes cxlsimd's job execution across worker
// processes. The shared-nothing runner makes this natural: every job is
// self-contained, derives its seed from (root seed, job ID), and results
// merge in submission order — so a job set executed on N remote workers
// renders byte-identical output to a serial in-process run, by
// construction rather than by luck.
//
// The wire contract is "jobs by description, results by value": a Spec
// names a job set (a section, the report, one measurement) that any
// process holding the same binary re-derives identically; workers run an
// index subset of that list and return the typed row values gob-encoded.
// Closures never cross the wire.
//
// Topology: one coordinator (the cxlsimd front end) and N workers. Workers
// register with the coordinator and re-register on a heartbeat interval;
// the coordinator deals job indices out in one strided chunk per lane
// (a bounded in-flight window of lanes per worker), reassigns chunks when
// a worker dies mid-run, and falls back to local execution when the fleet
// is gone — a degraded coordinator is exactly the single-process daemon.
//
// Mixed-version fleets are refused at registration and again on every run
// request: the compatibility token combines the canonical cache-key schema
// and the wire format, so a worker that would compute differently-keyed
// (or differently-shaped) results never joins.
package dist

import (
	"encoding/gob"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	cxl2sim "repro"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/workload"
)

// WireVersion is the dist wire-format version. Bump on any change to the
// request/response encoding.
const WireVersion = 1

// ProtocolVersion is the compatibility token exchanged at registration and
// sent with every run request. It folds in the canonical cache-key schema:
// two processes that would key results differently must never cooperate.
func ProtocolVersion() string {
	return fmt.Sprintf("%s/wire%d", experiments.CacheKeyVersion, WireVersion)
}

// BuildInfo describes the running binary for GET /v1/version: enough for
// an operator to tell a mixed-version fleet apart at a glance.
type BuildInfo struct {
	GoVersion       string `json:"go_version"`
	Revision        string `json:"revision,omitempty"`
	Modified        bool   `json:"modified,omitempty"`
	CacheKeyVersion string `json:"cache_key_version"`
	DistProtocol    string `json:"dist_protocol"`
	Mode            string `json:"mode"`
}

// Build returns the binary's BuildInfo with the given serving mode.
func Build(mode string) BuildInfo {
	info := BuildInfo{
		CacheKeyVersion: experiments.CacheKeyVersion,
		DistProtocol:    ProtocolVersion(),
		Mode:            mode,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Revision = s.Value
			case "vcs.modified":
				info.Modified = s.Value == "true"
			}
		}
	}
	return info
}

// Spec describes one request by value — a section, the report, or one §V
// measurement. It is the only thing that turns a request into work: the
// service handlers, dist workers and cxlbench -replay-trace all parse
// their input into a Spec, Build validates it and derives the job list
// and renderer, and Key renders its canonical cache key. Both are pure
// functions of the Spec, so every process holding the same binary derives
// the identical job list (same IDs, same order) — which is what makes
// remote execution byte-identical to local execution.
type Spec struct {
	// Kind selects the enumeration: "section", "report" or "measure".
	Kind string `json:"kind"`
	// Section names the experiment section (Kind == "section").
	Section string `json:"section,omitempty"`
	// Reps scales the infer, workload and cluster sections; the other
	// sections and the report ignore it. It is validated (>= 0) for every
	// kind and keys every section.
	Reps int `json:"reps,omitempty"`
	// Full includes the Fig. 8 co-simulations (Kind == "report").
	Full bool `json:"full,omitempty"`
	// Trace is an encoded workload trace (the versioned binary format)
	// the infer section replays instead of generating its request stream.
	// JSON carries it base64.
	Trace []byte `json:"trace,omitempty"`
	// Measure carries one §V measurement (Kind == "measure").
	Measure *MeasureParams `json:"measure,omitempty"`
}

// MeasureParams is one microbenchmark measurement, in the vocabulary of
// the service's /v1/measure request.
type MeasureParams struct {
	MeasureKind string `json:"measure_kind"` // d2h / d2d / h2d
	Op          string `json:"op"`
	Place       string `json:"place"`
	Reps        int    `json:"reps"` // drives no work; validated, keyed and echoed (cxl2sim.Measurement)
	Burst       int    `json:"burst"`
	DeviceType  int    `json:"device_type,omitempty"`
	LLCBytes    int    `json:"llc_bytes,omitempty"`
	LLCWays     int    `json:"llc_ways,omitempty"`
	Cores       int    `json:"cores,omitempty"`
	SNC         bool   `json:"snc,omitempty"`
}

// ErrUnknownSection marks a Spec naming a section the registry lacks (the
// service answers it with 404 rather than 400).
var ErrUnknownSection = errors.New("unknown section")

// Key validates the Spec and renders its canonical result-cache key under
// the given root seed and output format (sections only: "text" or
// "json"). It builds no jobs, so a cache hit costs no enumeration. The
// strings are the durable store's file identities: changing one for an
// existing request silently re-keys every stored result (pinned by
// TestSpecKeysPinned).
func (sp Spec) Key(seed int64, format string) (string, error) {
	switch sp.Kind {
	case "section":
		t, err := sp.sectionTrace()
		if err != nil {
			return "", err
		}
		key := experiments.SectionKey(sp.Section, sp.Reps, seed, format)
		if t != nil {
			// The rendered bytes depend on the replayed stream, so its
			// content hash joins the key. The encoding is canonical: the
			// hash identifies the stream, not the upload that carried it.
			key += fmt.Sprintf("|trace=%016x", t.Hash())
		}
		return key, nil
	case "report":
		if sp.Reps < 0 {
			return "", errNegativeReps
		}
		return fmt.Sprintf("%s/report|full=%t|seed=%d", experiments.CacheKeyVersion, sp.Full, seed), nil
	case "measure":
		_, cfg, err := sp.measure()
		if err != nil {
			return "", err
		}
		m := sp.Measure
		return fmt.Sprintf("%s/measure|%s|%s|%s|reps=%d|burst=%d|seed=%d|%s", experiments.CacheKeyVersion,
			m.MeasureKind, m.Op, m.Place, m.Reps, m.Burst, seed, cfg.CanonicalKey()), nil
	default:
		return "", fmt.Errorf("unknown spec kind %q", sp.Kind)
	}
}

// Build validates the Spec and assembles the work it describes: the job
// list plus, for sections and the report, the renderer of their results
// (a measurement has no text rendering; its Render is nil).
func (sp Spec) Build() (experiments.Section, error) {
	switch sp.Kind {
	case "section":
		t, err := sp.sectionTrace()
		if err != nil {
			return experiments.Section{}, err
		}
		sec, _ := experiments.Lookup(sp.Section, experiments.SectionOptions{Reps: sp.Reps, Trace: t})
		return sec, nil
	case "report":
		if sp.Reps < 0 {
			return experiments.Section{}, errNegativeReps
		}
		return experiments.Report(sp.Full), nil
	case "measure":
		job, _, err := sp.measure()
		return experiments.Section{Name: "measure", Jobs: []runner.Job{job}}, err
	default:
		return experiments.Section{}, fmt.Errorf("unknown spec kind %q", sp.Kind)
	}
}

// BuildJobs is Build's job list.
func (sp Spec) BuildJobs() ([]runner.Job, error) {
	sec, err := sp.Build()
	return sec.Jobs, err
}

var errNegativeReps = errors.New("reps must be >= 0")

// sectionTrace validates a section Spec and decodes its replay trace (nil
// without one). A trace must pass the infer section's replay precondition
// here, so no accepted Spec reaches a job that would panic on it.
func (sp Spec) sectionTrace() (*workload.Trace, error) {
	if names := experiments.SectionNames(); !slices.Contains(names, sp.Section) {
		slices.Sort(names)
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSection, sp.Section, names)
	}
	if sp.Reps < 0 {
		return nil, errNegativeReps
	}
	if len(sp.Trace) == 0 {
		return nil, nil
	}
	if sp.Section != "infer" {
		return nil, fmt.Errorf("section %q does not support trace replay (only \"infer\")", sp.Section)
	}
	t, err := workload.DecodeTrace(sp.Trace)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := experiments.CheckInferTrace(t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// measure validates a measure Spec and builds its one job and platform
// config. The job ID is a function of the vocabulary alone, so a
// distributed measurement shares its seed derivation with a local one.
func (sp Spec) measure() (runner.Job, cxl2sim.Config, error) {
	m := sp.Measure
	if m == nil {
		return runner.Job{}, cxl2sim.Config{}, errors.New("measure spec without parameters")
	}
	cfg := cxl2sim.Config{
		DeviceType: cxl2sim.DeviceType(m.DeviceType),
		LLCBytes:   m.LLCBytes, LLCWays: m.LLCWays, Cores: m.Cores, SNC: m.SNC,
	}
	place, ok := cxl2sim.PlacementNames[m.Place]
	switch {
	case !ok:
		return runner.Job{}, cfg, fmt.Errorf("unknown place %q (cold, LLC-1, HMC-1, DMC-1)", m.Place)
	case m.Reps < 0 || m.Burst < 0:
		return runner.Job{}, cfg, errors.New("reps and burst must be >= 0")
	case m.Burst >= experiments.DevLines:
		// Longer bursts would revisit lines of the address stream; the
		// bound also caps the work one request can ask for.
		return runner.Job{}, cfg, fmt.Errorf("burst must be < %d, the distinct lines of the address stream", experiments.DevLines)
	case cfg.DeviceType != 0 && cfg.DeviceType != cxl2sim.Type2 && cfg.DeviceType != cxl2sim.Type3:
		return runner.Job{}, cfg, fmt.Errorf("unknown device type %d", m.DeviceType)
	}
	spec := cxl2sim.MeasureSpec{Reps: m.Reps, Burst: m.Burst, Place: place}
	id := fmt.Sprintf("measure/%s/%s", m.MeasureKind, m.Op)
	switch m.MeasureKind {
	case "d2h", "d2d":
		op, ok := cxl2sim.D2HOpNames[m.Op]
		if !ok {
			return runner.Job{}, cfg, fmt.Errorf("unknown %s op %q (NC-P, NC-rd, NC-wr, CO-rd, CO-wr, CS-rd)", m.MeasureKind, m.Op)
		}
		if m.MeasureKind == "d2h" {
			return cxl2sim.MeasureD2HJob(id, cfg, op, spec), cfg, nil
		}
		return cxl2sim.MeasureD2DJob(id, cfg, op, spec), cfg, nil
	case "h2d":
		op, ok := cxl2sim.HostOpNames[m.Op]
		if !ok {
			return runner.Job{}, cfg, fmt.Errorf("unknown h2d op %q (ld, nt-ld, st, nt-st)", m.Op)
		}
		return cxl2sim.MeasureH2DJob(id, cfg, op, spec), cfg, nil
	default:
		return runner.Job{}, cfg, fmt.Errorf("unknown kind %q (d2h, d2d, h2d)", m.MeasureKind)
	}
}

// ---- wire types ------------------------------------------------------

// registration is the register/heartbeat body (JSON).
type registration struct {
	Addr    string `json:"addr"`    // dialable host:port of the worker
	Version string `json:"version"` // ProtocolVersion()
}

// runRequest asks a worker to execute an index subset of a Spec's job
// list (JSON; the trace rides base64 inside the Spec).
type runRequest struct {
	Version string `json:"version"`
	Spec    Spec   `json:"spec"`
	Indices []int  `json:"indices"`
	Seed    int64  `json:"seed"`
}

// wireResult is one job outcome in transit. Value carries the job's typed
// rows through gob (concrete types registered below); errors travel as
// strings plus the runner's classification flags.
type wireResult struct {
	ID        string
	Index     int
	Value     any
	Err       string
	Panicked  bool
	Cancelled bool
	Wall      time.Duration
	Events    uint64
}

// runResponse is the gob-encoded worker reply.
type runResponse struct {
	Results []wireResult
}

// toWire converts runner results for transport.
func toWire(results []runner.Result) []wireResult {
	out := make([]wireResult, len(results))
	for i, r := range results {
		w := wireResult{
			ID: r.ID, Index: r.Index, Value: r.Value,
			Panicked: r.Panicked, Cancelled: r.Cancelled,
			Wall: r.Wall, Events: r.Events,
		}
		if r.Err != nil {
			w.Err = r.Err.Error()
		}
		out[i] = w
	}
	return out
}

// fromWire reconstructs runner results, re-mapping each onto its original
// submission index (the worker ran a subset; Index says which slot of the
// full job list the result fills).
func fromWire(in []wireResult) []runner.Result {
	out := make([]runner.Result, len(in))
	for i, w := range in {
		r := runner.Result{
			ID: w.ID, Index: w.Index, Value: w.Value,
			Panicked: w.Panicked, Cancelled: w.Cancelled,
			Wall: w.Wall, Events: w.Events,
		}
		if w.Err != "" {
			r.Err = fmt.Errorf("%s", w.Err)
		}
		out[i] = r
	}
	return out
}

// The gob registry of every concrete Value type a job can return. Both
// sides are the same binary, so registration is symmetric by construction;
// a new section must add its row type here before it can be distributed
// (TestEverySectionDistributes pins this).
func init() {
	gob.Register([]experiments.Table3Row{})
	gob.Register([]experiments.Fig3Row{})
	gob.Register([]experiments.Fig4Row{})
	gob.Register([]experiments.Fig5Row{})
	gob.Register([]experiments.Fig6Row{})
	gob.Register([]experiments.Table4Row{})
	gob.Register([]experiments.WriteQueueRow{})
	gob.Register([]experiments.InferRow{})
	gob.Register([]experiments.WorkloadRow{})
	gob.Register([]experiments.ClusterRow{})
	gob.Register([]experiments.Fig8Row{})
	gob.Register(cxl2sim.Measurement{})
}
