package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// WorkerConfig shapes a Worker.
type WorkerConfig struct {
	// Addr is the listen address (host:port).
	Addr string
	// Advertise is the address the coordinator should dial back; defaults
	// to Addr (useful when Addr binds a wildcard host).
	Advertise string
	// Coordinator is the coordinator base URL ("http://host:port"). Empty
	// disables registration — the worker only serves direct run requests.
	Coordinator string
	// Workers sizes the runner pool per run request (0 = GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds simultaneous run requests (default 2); excess
	// requests queue on the semaphore rather than oversubscribing the host.
	MaxConcurrent int
	// HeartbeatEvery is the re-registration interval (default 2s). The
	// heartbeat doubles as liveness: a coordinator treats a worker whose
	// last registration is stale as dead.
	HeartbeatEvery time.Duration
	// Log receives operational messages; nil discards them.
	Log *log.Logger
}

// Worker executes job subsets on behalf of a coordinator. It is a thin
// wrapper around runner.Run: re-derive the job list from the Spec, run the
// requested indices, ship the typed results back.
type Worker struct {
	cfg  WorkerConfig
	mux  *http.ServeMux
	http *http.Server
	sem  chan struct{}

	jobsRun  atomic.Uint64
	runsDone atomic.Uint64
}

// NewWorker builds a Worker; call Run to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Second
	}
	if cfg.Advertise == "" {
		cfg.Advertise = cfg.Addr
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	w := &Worker{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.MaxConcurrent),
	}
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	w.mux.HandleFunc("GET /v1/version", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(Build("worker"))
	})
	w.mux.HandleFunc("POST /dist/v1/run", w.handleRun)
	w.http = &http.Server{Addr: cfg.Addr, Handler: w.mux}
	return w
}

// Handler exposes the worker's routes (for tests and embedding).
func (w *Worker) Handler() http.Handler { return w.mux }

// handleRun executes one index subset. The version gate repeats here (not
// just at registration) so a worker can never be tricked into computing
// under a different key schema by a stale or foreign coordinator.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		http.Error(rw, "bad run request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Version != ProtocolVersion() {
		http.Error(rw, fmt.Sprintf("version mismatch: worker %s, coordinator %s",
			ProtocolVersion(), req.Version), http.StatusConflict)
		return
	}
	jobs, err := req.Spec.BuildJobs()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	for _, idx := range req.Indices {
		if idx < 0 || idx >= len(jobs) {
			http.Error(rw, fmt.Sprintf("index %d out of range (%d jobs)", idx, len(jobs)),
				http.StatusBadRequest)
			return
		}
	}

	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-r.Context().Done():
		return
	}

	sub := make([]runner.Job, len(req.Indices))
	for i, idx := range req.Indices {
		sub[i] = jobs[idx]
	}
	results := runner.Run(sub, runner.Options{
		Workers:  w.cfg.Workers,
		RootSeed: req.Seed,
		Context:  r.Context(),
	})
	// Re-map each result onto its slot in the full job list; the
	// coordinator merges by this index, which is what keeps the final
	// render in submission order regardless of which worker ran what.
	for i := range results {
		results[i].Index = req.Indices[i]
	}
	w.jobsRun.Add(uint64(len(results)))
	w.runsDone.Add(1)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(runResponse{Results: toWire(results)}); err != nil {
		http.Error(rw, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/x-gob")
	_, _ = rw.Write(buf.Bytes())
}

// Run serves until ctx is cancelled, then drains in-flight run requests
// gracefully. While serving it heartbeats the coordinator (when
// configured); the loop stops for good if the coordinator refuses the
// worker's protocol version.
func (w *Worker) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", w.cfg.Addr)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if w.cfg.Advertise == "" || w.cfg.Advertise == w.cfg.Addr {
		w.cfg.Advertise = ln.Addr().String()
	}
	w.cfg.Log.Printf("worker: serving on %s (advertising %s)", ln.Addr(), w.cfg.Advertise)

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if w.cfg.Coordinator != "" {
		go w.heartbeat(hbCtx)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- w.http.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stopHB()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.http.Shutdown(shCtx); err != nil {
		return fmt.Errorf("worker: drain: %w", err)
	}
	w.cfg.Log.Printf("worker: drained cleanly (%d runs, %d jobs)",
		w.runsDone.Load(), w.jobsRun.Load())
	return nil
}

// heartbeat re-registers with the coordinator on an interval. Registration
// IS the heartbeat: the coordinator upserts (addr, lastSeen) on every post
// and resurrects a worker it had given up on.
func (w *Worker) heartbeat(ctx context.Context) {
	tick := time.NewTicker(w.cfg.HeartbeatEvery)
	defer tick.Stop()
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		status, err := w.registerOnce(ctx, client)
		switch {
		case err != nil:
			w.cfg.Log.Printf("worker: register with %s: %v", w.cfg.Coordinator, err)
		case status == http.StatusConflict:
			// A version-mismatched fleet must not keep knocking; the
			// operator has to roll the binary.
			w.cfg.Log.Printf("worker: coordinator refused protocol %s; stopping heartbeat",
				ProtocolVersion())
			return
		case status != http.StatusOK:
			w.cfg.Log.Printf("worker: register: unexpected status %d", status)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (w *Worker) registerOnce(ctx context.Context, client *http.Client) (int, error) {
	body, _ := json.Marshal(registration{Addr: w.cfg.Advertise, Version: ProtocolVersion()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+"/dist/v1/register", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}
