package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cxl2sim "repro"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// startWorker serves a dist worker over httptest and returns its dialable
// addr plus the server handle (Close kills it abruptly — the "worker
// died" primitive the reassignment tests use).
func startWorker(t testing.TB, wrap func(http.Handler) http.Handler) (string, *httptest.Server) {
	t.Helper()
	w := dist.NewWorker(dist.WorkerConfig{Workers: 1, MaxConcurrent: 4})
	h := http.Handler(w.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), srv
}

// newCoordinator builds a coordinator with its control plane served over
// httptest, registers the given worker addrs, and returns both.
func newCoordinator(t testing.TB, addrs ...string) (*dist.Coordinator, *httptest.Server) {
	t.Helper()
	c := dist.NewCoordinator(dist.CoordinatorConfig{Workers: 1, StaleAfter: time.Hour})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	for _, a := range addrs {
		register(t, srv.URL, a, dist.ProtocolVersion(), http.StatusOK)
	}
	return c, srv
}

func register(t testing.TB, coord, addr, version string, wantStatus int) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"addr": addr, "version": version})
	resp, err := http.Post(coord+"/dist/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("register %s as %s: status %d, want %d", addr, version, resp.StatusCode, wantStatus)
	}
}

// run executes spec through the coordinator, failing the test on a spec
// error.
func run(t testing.TB, c *dist.Coordinator, spec dist.Spec) []runner.Result {
	t.Helper()
	results, err := c.Run(context.Background(), spec, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// renderSection runs Render for the named section over results.
func renderSection(t *testing.T, name string, reps int, results []runner.Result) []byte {
	t.Helper()
	secs := cxl2sim.ExperimentSections(reps)
	sec, ok := cxl2sim.ExperimentSectionByName(secs, name)
	if !ok {
		t.Fatalf("unknown section %q", name)
	}
	var buf bytes.Buffer
	if err := sec.Render(&buf, results); err != nil {
		t.Fatalf("render %s: %v", name, err)
	}
	return buf.Bytes()
}

// TestDistributedSectionByteIdentity: a section sharded across two
// workers renders byte-for-byte what a serial in-process run renders —
// the invariant every cache key in the serving layer leans on.
func TestDistributedSectionByteIdentity(t *testing.T) {
	const reps = 6
	a, _ := startWorker(t, nil)
	b, _ := startWorker(t, nil)
	c, _ := newCoordinator(t, a, b)

	spec := dist.Spec{Kind: "section", Section: "fig3", Reps: reps}
	jobs, err := spec.BuildJobs()
	if err != nil {
		t.Fatal(err)
	}
	serial := renderSection(t, "fig3", reps, runner.Run(jobs, runner.Options{Workers: 1}))
	distd := renderSection(t, "fig3", reps, run(t, c, spec))
	if !bytes.Equal(serial, distd) {
		t.Fatalf("distributed render differs from serial:\nserial:\n%s\ndistributed:\n%s", serial, distd)
	}
	m := c.Snapshot()
	if m.RemoteJobs != uint64(len(jobs)) {
		t.Fatalf("expected all %d jobs to run remotely, got %d (metrics %+v)", len(jobs), m.RemoteJobs, m)
	}
	if m.LocalFallbacks != 0 {
		t.Fatalf("unexpected local fallback with a healthy fleet: %+v", m)
	}
}

// TestWorkerLossReassignsMidSection: one of two workers dies after its
// first chunk; the coordinator must mark it dead, requeue its work onto
// the survivor, and still render bytes identical to a serial run.
func TestWorkerLossReassignsMidSection(t *testing.T) {
	const reps = 5
	// The healthy worker holds its run requests until the flaky one has
	// been asked a second time, so it cannot drain the shared queue first:
	// the flaky worker always dies holding a chunk of several jobs.
	asked := make(chan struct{})
	var askedOnce sync.Once
	healthy, _ := startWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/dist/v1/run" {
				select {
				case <-asked:
				case <-time.After(10 * time.Second):
				}
			}
			next.ServeHTTP(rw, r)
		})
	})
	var served, lost atomic.Int32 // lost: jobs in the first chunk it dies holding
	flaky, _ := startWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/dist/v1/run" && served.Add(1) > 1 {
				var req struct{ Indices []int }
				_ = json.NewDecoder(r.Body).Decode(&req)
				lost.CompareAndSwap(0, int32(len(req.Indices)))
				askedOnce.Do(func() { close(asked) })
				panic(http.ErrAbortHandler) // drop the connection: worker is gone
			}
			next.ServeHTTP(rw, r)
		})
	})
	c, _ := newCoordinator(t, healthy, flaky)

	spec := dist.Spec{Kind: "section", Section: "fig4", Reps: reps}
	jobs, err := spec.BuildJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 4 {
		t.Fatalf("need enough jobs to spread over two workers, got %d", len(jobs))
	}
	serial := renderSection(t, "fig4", reps, runner.Run(jobs, runner.Options{Workers: 1}))
	distd := renderSection(t, "fig4", reps, run(t, c, spec))
	if !bytes.Equal(serial, distd) {
		t.Fatal("render after mid-section worker loss differs from serial")
	}
	m := c.Snapshot()
	if m.ChunksReassigned == 0 {
		t.Fatalf("worker died mid-section but nothing was reassigned: %+v", m)
	}
	if m.WorkersDead == 0 {
		t.Fatalf("dead worker still counted live: %+v", m)
	}
	if lost.Load() < 2 {
		t.Fatalf("the flaky worker died holding %d job(s), want a multi-job chunk", lost.Load())
	}
}

// TestCancelledRunKeepsWorkersLive: a run whose context ends while its
// workers still hold their chunks blames no worker — the fleet stays in
// rotation for the next request — counts no local fallback, and still
// returns a full result set, every job classified Cancelled.
func TestCancelledRunKeepsWorkersLive(t *testing.T) {
	release := make(chan struct{})
	hold := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/dist/v1/run" {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			next.ServeHTTP(rw, r)
		})
	}
	a, _ := startWorker(t, hold)
	b, _ := startWorker(t, hold)
	c, _ := newCoordinator(t, a, b)
	defer close(release)

	spec := dist.Spec{Kind: "section", Section: "fig4", Reps: 1}
	jobs, err := spec.BuildJobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	results, err := c.Run(ctx, spec, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) || runner.CancelledCount(results) != len(jobs) {
		t.Fatalf("%d results, %d cancelled; want all %d cancelled",
			len(results), runner.CancelledCount(results), len(jobs))
	}
	for i, r := range results {
		if r.ID != jobs[i].ID || r.Index != i {
			t.Fatalf("result %d is %s at index %d, want %s", i, r.ID, r.Index, jobs[i].ID)
		}
	}
	if m := c.Snapshot(); m.WorkersDead != 0 || m.WorkersLive != 2 || m.ChunksReassigned != 0 || m.LocalFallbacks != 0 {
		t.Fatalf("a cancelled run blamed its workers: %+v", m)
	}
}

// BenchmarkDistSection times one fig4 section at reps 1 — 24 jobs in one
// strided chunk per lane — through a coordinator with two loopback
// workers: the dist layer's run round trips plus the jobs they carry.
func BenchmarkDistSection(b *testing.B) {
	w1, _ := startWorker(b, nil)
	w2, _ := startWorker(b, nil)
	c, _ := newCoordinator(b, w1, w2)
	spec := dist.Spec{Kind: "section", Section: "fig4", Reps: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, c, spec)
	}
}

// TestLocalFallbackWithNoWorkers: an empty fleet degrades to in-process
// execution with identical output — the coordinator alone IS the daemon.
// The fallback drains every pending chunk in one pool run, so a section
// of one-scenario jobs (cluster) runs as parallel as it does in-process.
func TestLocalFallbackWithNoWorkers(t *testing.T) {
	const reps = 6
	for _, section := range []string{"fig3", "cluster"} {
		spec := dist.Spec{Kind: "section", Section: section, Reps: reps}
		jobs, err := spec.BuildJobs()
		if err != nil {
			t.Fatal(err)
		}
		serial := renderSection(t, section, reps, runner.Run(jobs, runner.Options{Workers: 1}))
		for _, workers := range []int{1, 4} {
			c := dist.NewCoordinator(dist.CoordinatorConfig{Workers: workers, StaleAfter: time.Hour})
			local := renderSection(t, section, reps, run(t, c, spec))
			if !bytes.Equal(serial, local) {
				t.Fatalf("%s at %d workers: local-fallback render differs from serial", section, workers)
			}
			if m := c.Snapshot(); m.LocalFallbacks != 1 {
				t.Fatalf("%s at %d workers: want one fallback drain: %+v", section, workers, m)
			}
		}
	}
}

// TestVersionMismatchRefused: a worker speaking a different protocol is
// refused at registration, and a coordinator speaking a different
// protocol is refused at the run endpoint — both with 409.
func TestVersionMismatchRefused(t *testing.T) {
	addr, _ := startWorker(t, nil)
	_, coord := newCoordinator(t)
	register(t, coord.URL, addr, "v0/wire0", http.StatusConflict)
	register(t, coord.URL, addr, dist.ProtocolVersion(), http.StatusOK)

	body, _ := json.Marshal(map[string]any{
		"version": "v0/wire0",
		"spec":    map[string]any{"kind": "section", "section": "fig3", "reps": 2},
		"indices": []int{0},
	})
	resp, err := http.Post("http://"+addr+"/dist/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("worker accepted a mismatched run request: status %d", resp.StatusCode)
	}
}

// TestWorkerVersionEndpoint: GET /v1/version reports the compatibility
// tokens an operator needs to diagnose a mixed fleet.
func TestWorkerVersionEndpoint(t *testing.T) {
	addr, _ := startWorker(t, nil)
	resp, err := http.Get("http://" + addr + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info dist.BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.DistProtocol != dist.ProtocolVersion() || info.Mode != "worker" {
		t.Fatalf("version endpoint: %+v", info)
	}
}

// TestEverySectionDistributes pins the gob registry: every experiment
// section must ship its row values through the wire and render
// byte-identically. A new section whose row type is missing from the
// registry fails here, not in production.
func TestEverySectionDistributes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	const reps = 2
	addr, _ := startWorker(t, nil)
	for _, sec := range cxl2sim.ExperimentSections(reps) {
		sec := sec
		t.Run(sec.Name, func(t *testing.T) {
			c, _ := newCoordinator(t, addr)
			spec := dist.Spec{Kind: "section", Section: sec.Name, Reps: reps}
			jobs, err := spec.BuildJobs()
			if err != nil {
				t.Fatal(err)
			}
			serial := renderSection(t, sec.Name, reps, runner.Run(jobs, runner.Options{Workers: 1}))
			distd := renderSection(t, sec.Name, reps, run(t, c, spec))
			if !bytes.Equal(serial, distd) {
				t.Fatal("distributed render differs from serial")
			}
		})
	}
}

// TestDistributedReportByteIdentity: the flagship contract — the full
// report rendered from distributed results matches the serial render.
func TestDistributedReportByteIdentity(t *testing.T) {
	const reps = 3
	a, _ := startWorker(t, nil)
	b, _ := startWorker(t, nil)
	c, _ := newCoordinator(t, a, b)

	spec := dist.Spec{Kind: "report", Reps: reps}
	sec, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	if err := sec.Render(&serial, runner.Run(sec.Jobs, runner.Options{Workers: 1})); err != nil {
		t.Fatal(err)
	}
	var distd bytes.Buffer
	if err := sec.Render(&distd, run(t, c, spec)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), distd.Bytes()) {
		t.Fatal("distributed report differs from serial render")
	}
}

// TestMeasureSpecBuildsCanonicalJob: the measure spec derives the same
// job ID the service uses, so distributed measures share seed derivation
// with local ones; and every invalid Spec fails both Key and Build, with
// only an unknown section marked ErrUnknownSection (the service's 404).
func TestMeasureSpecBuildsCanonicalJob(t *testing.T) {
	spec := dist.Spec{Kind: "measure", Measure: &dist.MeasureParams{
		MeasureKind: "d2h", Op: "NC-rd", Place: "cold", Reps: 50, Burst: 4,
	}}
	jobs, err := spec.BuildJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "measure/d2h/NC-rd" {
		t.Fatalf("jobs = %+v", jobs)
	}
	bad := map[string]dist.Spec{
		"measure sans args": {Kind: "measure"},
		"measure op":        {Kind: "measure", Measure: &dist.MeasureParams{MeasureKind: "d2h", Op: "nope", Place: "cold"}},
		"measure place":     {Kind: "measure", Measure: &dist.MeasureParams{MeasureKind: "d2h", Op: "NC-rd", Place: "nope"}},
		"measure device": {Kind: "measure", Measure: &dist.MeasureParams{
			MeasureKind: "h2d", Op: "ld", Place: "cold", DeviceType: 9}},
		"measure burst": {Kind: "measure", Measure: &dist.MeasureParams{
			MeasureKind: "h2d", Op: "ld", Place: "cold", Burst: experiments.DevLines}},
		"unknown section":   {Kind: "section", Section: "nope"},
		"unknown kind":      {Kind: "nope"},
		"negative reps":     {Kind: "section", Section: "fig3", Reps: -1},
		"report reps":       {Kind: "report", Reps: -1},
		"trace on fig3":     {Kind: "section", Section: "fig3", Trace: []byte("CXWT")},
		"undecodable trace": {Kind: "section", Section: "infer", Trace: []byte("notatrace")},
	}
	for name, tr := range unservableTraces() {
		bad[name] = dist.Spec{Kind: "section", Section: "infer", Trace: tr}
	}
	for name, sp := range bad {
		_, kerr := sp.Key(1, "text")
		if _, berr := sp.BuildJobs(); kerr == nil || berr == nil {
			t.Errorf("%s: Key err %v, Build err %v; want both to fail", name, kerr, berr)
		}
		if got := errors.Is(kerr, dist.ErrUnknownSection); got != (name == "unknown section") {
			t.Errorf("%s: errors.Is(ErrUnknownSection) = %v", name, got)
		}
	}
}
