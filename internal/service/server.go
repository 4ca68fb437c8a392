// Package service is the simulator-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/cxlsimd) that serves the paper's experiment
// sections, ad-hoc §V microbenchmark jobs and the full comparison report
// on top of the shared-nothing job runner.
//
// Three properties shape the design:
//
//   - determinism: the runner renders byte-identical output per
//     (config, seed) for any worker count, so rendered responses are pure
//     functions of their canonical request key — a size-bounded LRU
//     caches them and concurrent identical requests coalesce onto one
//     simulation run;
//   - backpressure: a bounded admission queue caps concurrent runs and
//     waiting requests; excess load is shed at the front door with
//     429 + Retry-After instead of unbounded goroutines;
//   - bounded lifetimes: every run carries a deadline plumbed into
//     runner.Run as real cancellation, and shutdown drains in-flight work
//     within a configured timeout while rejecting new work.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	cxl2sim "repro"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/store"
)

// Config shapes a Server. Zero values take the noted defaults.
type Config struct {
	// Addr is the listen address (default ":8437").
	Addr string
	// Workers sizes the runner pool used by each admitted run
	// (default GOMAXPROCS). Output bytes do not depend on it.
	Workers int
	// MaxConcurrent bounds simultaneously executing runs (default 2 —
	// each run already fans its jobs out over Workers cores).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a run slot; beyond it
	// requests are rejected with 429 (default 8).
	QueueDepth int
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// RequestTimeout is the per-run deadline, enforced as context
	// cancellation inside runner.Run (default 120s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration
	// DefaultReps is the section reps used when a request omits one. Only
	// the infer, workload and cluster sections read it. At 0 they keep
	// their own defaults (infer and cluster 48 requests, workload 2048
	// arrivals), which are not cxlbench's: its -reps 1000 runs 96, 96 and
	// 8192. Measurements and the report do not read it.
	DefaultReps int
	// StoreDir, when set, layers a content-addressed durable result store
	// under the in-memory cache: rendered responses survive restarts and
	// are shared between replicas pointing at the same directory. Empty
	// keeps the cache memory-only.
	StoreDir string
	// StoreBytes bounds the durable store (default 256 MiB); GC evicts
	// least-recently-accessed entries beyond it.
	StoreBytes int64
	// Coordinator, when set, runs simulations across its registered dist
	// workers instead of in-process, and mounts the /dist/v1 control
	// endpoints. Byte output is identical either way.
	Coordinator *dist.Coordinator
	// Log receives request and lifecycle lines; nil logs to stderr.
	Log *log.Logger
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":8437"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = log.New(os.Stderr, "cxlsimd: ", log.LstdFlags)
	}
}

// Server is the daemon: admission queue, result cache, request
// coalescing, metrics and the HTTP handler tree.
type Server struct {
	cfg      Config
	queue    *queue
	cache    *resultCache
	store    *store.Store // nil when StoreDir is unset
	flight   *flightGroup
	metrics  *metrics
	mux      *http.ServeMux
	http     *http.Server
	draining atomic.Bool

	// base is the ancestor of every run context; cancelling it
	// hard-stops runs that outlive the drain window.
	base       context.Context
	cancelBase context.CancelFunc
}

// New builds a Server from cfg (zero values take defaults). It fails only
// when a configured durable store directory cannot be prepared.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newQueue(cfg.MaxConcurrent, cfg.QueueDepth),
		cache:   newResultCache(cfg.CacheBytes),
		flight:  newFlightGroup(),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	if cfg.StoreDir != "" {
		// The canonical key version joins the on-disk path, so entries
		// written under an older key schema can never alias a new one.
		st, err := store.Open(store.Config{
			Dir:        cfg.StoreDir,
			MaxBytes:   cfg.StoreBytes,
			KeyVersion: experiments.CacheKeyVersion,
		})
		if err != nil {
			return nil, fmt.Errorf("service: durable store: %w", err)
		}
		s.store = st
	}
	s.base, s.cancelBase = context.WithCancel(context.Background())
	s.routes()
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// run is the execution seam every endpoint goes through: it builds the
// spec and executes its jobs in-process via the runner by default, or
// across the dist worker fleet when a coordinator is configured. Both
// paths derive per-job seeds from (rootSeed, job ID) and merge results in
// submission order, so the rendered bytes — and therefore the cache keys —
// are identical. A failed or cancelled job surfaces as the error, with the
// results still returned for classification.
func (s *Server) run(ctx context.Context, spec dist.Spec, rootSeed int64) (experiments.Section, []cxl2sim.JobResult, error) {
	sec, err := spec.Build()
	if err != nil {
		return sec, nil, err
	}
	opts := cxl2sim.JobOptions{Workers: s.cfg.Workers, RootSeed: rootSeed, Context: ctx}
	var results []cxl2sim.JobResult
	if s.cfg.Coordinator != nil {
		if results, err = s.cfg.Coordinator.Run(ctx, spec, opts); err != nil {
			return sec, nil, err
		}
	} else {
		results = cxl2sim.RunJobs(sec.Jobs, opts)
	}
	s.metrics.observeJobs(results)
	if n := cxl2sim.CancelledJobCount(results); n > 0 {
		return sec, results, fmt.Errorf("cancelled after %d/%d jobs: %w", len(results)-n, len(results), ctx.Err())
	}
	return sec, results, cxl2sim.FirstJobError(results)
}

// cacheSnapshot merges both cache tiers into one stats view.
func (s *Server) cacheSnapshot() cacheStats {
	cs := s.cache.snapshot()
	if s.store != nil {
		ds := s.store.Snapshot()
		cs.DiskHits, cs.DiskMisses, cs.DiskPuts = ds.Hits, ds.Misses, ds.Puts
		cs.DiskEvictions, cs.DiskCorrupt = ds.Evictions, ds.Corrupt
		cs.DiskEntries, cs.DiskBytes = ds.Entries, ds.Bytes
	}
	return cs
}

// Handler returns the full handler tree (request accounting included) —
// the httptest entry point.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.metrics.observeRequest(rec.code)
	})
}

// writeJSON renders v with a trailing newline. Encoding of the service's
// own response types cannot fail; a broken client connection is ignored
// like any other write error at this layer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
