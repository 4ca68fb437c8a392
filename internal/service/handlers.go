package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"time"

	cxl2sim "repro"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/store"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /v1/sections", s.handleSectionsList)
	s.mux.HandleFunc("POST /v1/sections/{name}", s.handleSectionRun)
	s.mux.HandleFunc("POST /v1/measure", s.handleMeasure)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	if s.cfg.Coordinator != nil {
		s.cfg.Coordinator.Routes(s.mux)
	}
}

// httpError carries a specific status code out of a run function.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// runCached is the shared path of every simulation endpoint: serve from
// the result cache when possible, otherwise coalesce concurrent identical
// requests onto one leader, admit the leader through the bounded queue
// (shedding load with 429 + Retry-After when the waiting room is full),
// execute under the per-request deadline, and store the rendered bytes.
//
// The leader's run context derives from the server's base context — not
// the leader's connection — because a finished result benefits every
// coalesced follower and all future cache hits; it stays bounded by
// RequestTimeout and is hard-cancelled if shutdown outlives the drain
// window. Admission waiting, by contrast, does watch the client: a caller
// that hangs up while queued frees its place immediately.
func (s *Server) runCached(w http.ResponseWriter, r *http.Request, key, label string,
	run func(ctx context.Context) (cached, error)) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if resp, ok := s.cache.get(key); ok {
		s.serveCached(w, resp, "hit-mem")
		return
	}
	// Memory missed; the durable store may still have the bytes from a
	// previous process (or a sibling replica on the same directory). A disk
	// hit is promoted into memory so the next request is a hit-mem.
	if s.store != nil {
		if e, ok := s.store.Get(key); ok {
			resp := cached{key: e.Key, body: e.Body, contentType: e.ContentType, status: e.Status}
			s.cache.put(resp)
			s.serveCached(w, resp, "hit-disk")
			return
		}
	}
	resp, err, leader := s.flight.do(key, r.Context().Done(), func() (cached, error) {
		if err := s.queue.acquire(r.Context()); err != nil {
			return cached{}, err
		}
		defer s.queue.release()
		ctx, cancel := context.WithTimeout(s.base, s.cfg.RequestTimeout)
		defer cancel()
		start := time.Now()
		resp, err := run(ctx)
		s.metrics.observeSection(label, time.Since(start))
		if err != nil {
			return cached{}, err
		}
		resp.key = key
		if resp.status == 0 {
			resp.status = http.StatusOK
		}
		s.cache.put(resp)
		if s.store != nil {
			_ = s.store.Put(store.Entry{
				Key: resp.key, Body: resp.body,
				ContentType: resp.contentType, Status: resp.status,
			})
		}
		return resp, nil
	})
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	source := "coalesced"
	if leader {
		source = "miss"
	}
	s.serveCached(w, resp, source)
}

// serveCached writes a stored response with cache diagnostics.
func (s *Server) serveCached(w http.ResponseWriter, resp cached, source string) {
	h := w.Header()
	h.Set("Content-Type", resp.contentType)
	h.Set("X-Cache", source)
	h.Set("X-Cache-Key", keyHash(resp.key))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// writeRunError maps run/admission failures onto HTTP statuses.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var herr *httpError
	switch {
	case errors.As(err, &herr):
		writeError(w, herr.status, "%s", herr.msg)
	case errors.Is(err, errQueueFull):
		// Back off by the estimated drain time of the queue ahead of the
		// caller, not its length: a one-deep queue of minute-long report
		// runs needs a far longer retry than ten quick section runs.
		w.Header().Set("Retry-After", strconv.Itoa(s.metrics.retryAfterSeconds(s.queue.depth())))
		writeError(w, http.StatusTooManyRequests,
			"admission queue full (%d waiting, %d in flight); retry later",
			s.queue.depth(), s.queue.inFlight())
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, errFollowerGone):
		// The client stopped waiting while coalesced; nothing useful can
		// be delivered. 499 is the de-facto "client closed request".
		w.WriteHeader(499)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "run exceeded the %s request deadline",
			s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "run cancelled by shutdown")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ---- health + metrics ------------------------------------------------

type healthzResponse struct {
	Status       string     `json:"status"`
	QueueDepth   int        `json:"queue_depth"`
	InFlight     int        `json:"in_flight"`
	Cache        cacheStats `json:"cache"`
	CacheHitRate float64    `json:"cache_hit_rate"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cs := s.cacheSnapshot()
	resp := healthzResponse{
		Status:       "ok",
		QueueDepth:   s.queue.depth(),
		InFlight:     s.queue.inFlight(),
		Cache:        cs,
		CacheHitRate: cs.hitRate(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.queue, s.cacheSnapshot(), s.store != nil,
		s.flight.waiters(), s.cfg.Coordinator, s.draining.Load())
}

// handleVersion reports the binary's build and compatibility info: the
// canonical cache-key schema and the dist protocol token a mixed-version
// fleet is refused by.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	mode := "standalone"
	if s.cfg.Coordinator != nil {
		mode = "coordinator"
	}
	writeJSON(w, http.StatusOK, dist.Build(mode))
}

// ---- GET /v1/sections ------------------------------------------------

type sectionInfo struct {
	Name string `json:"name"`
	Jobs int    `json:"jobs"`
}

func (s *Server) handleSectionsList(w http.ResponseWriter, r *http.Request) {
	secs := experiments.Sections(experiments.SectionOptions{Reps: s.cfg.DefaultReps})
	infos := make([]sectionInfo, 0, len(secs))
	for _, sec := range secs {
		infos = append(infos, sectionInfo{Name: sec.Name, Jobs: len(sec.Jobs)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"sections": infos})
}

// specKey validates spec and renders its cache key, answering an invalid
// spec before admission: 404 for an unknown section, 400 otherwise.
func specKey(w http.ResponseWriter, spec dist.Spec, seed int64, format string) (string, bool) {
	key, err := spec.Key(seed, format)
	switch {
	case errors.Is(err, dist.ErrUnknownSection):
		writeError(w, http.StatusNotFound, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		return key, true
	}
	return "", false
}

// ---- POST /v1/sections/{name} ----------------------------------------

type sectionRequest struct {
	// Reps scales the infer, workload and cluster sections (0 keeps their
	// defaults); the other sections ignore it, though it still keys them.
	Reps int `json:"reps"`
	// Seed roots the per-job seed derivation (0 = the default root seed).
	Seed int64 `json:"seed"`
	// Format selects "text" (the cxlbench rendering, default) or "json"
	// (the section's typed rows).
	Format string `json:"format"`
	// Trace is a base64-encoded workload trace (the versioned binary
	// format) to replay instead of generating the request stream. Only the
	// "infer" section supports replay; the trace's content hash joins the
	// cache key, so distinct streams never alias.
	Trace []byte `json:"trace"`
}

func (s *Server) handleSectionRun(w http.ResponseWriter, r *http.Request) {
	var req sectionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Reps == 0 {
		req.Reps = s.cfg.DefaultReps
	}
	if req.Seed == 0 {
		req.Seed = cxl2sim.DefaultRootSeed
	}
	if req.Format == "" {
		req.Format = "text"
	}
	if req.Format != "text" && req.Format != "json" {
		writeError(w, http.StatusBadRequest, "format must be \"text\" or \"json\", got %q", req.Format)
		return
	}
	name := r.PathValue("name")
	spec := dist.Spec{Kind: "section", Section: name, Reps: req.Reps, Trace: req.Trace}
	key, ok := specKey(w, spec, req.Seed, req.Format)
	if !ok {
		return
	}
	s.runCached(w, r, key, "section/"+name, func(ctx context.Context) (cached, error) {
		sec, results, err := s.run(ctx, spec, req.Seed)
		if err != nil {
			return cached{}, err
		}
		if req.Format == "json" {
			body, err := json.MarshalIndent(map[string]any{
				"section": name,
				"reps":    req.Reps,
				"seed":    req.Seed,
				"rows":    flattenRows(results),
			}, "", "  ")
			if err != nil {
				return cached{}, fmt.Errorf("marshal rows: %w", err)
			}
			return cached{body: append(body, '\n'), contentType: "application/json"}, nil
		}
		var buf bytes.Buffer
		if err := sec.Render(&buf, results); err != nil {
			return cached{}, err
		}
		return cached{body: buf.Bytes(), contentType: "text/plain; charset=utf-8"}, nil
	})
}

// flattenRows concatenates the per-job row fragments ([]T per job) into
// one flat slice for JSON rendering, preserving job order.
func flattenRows(results []cxl2sim.JobResult) []any {
	rows := []any{}
	for _, res := range results {
		v := reflect.ValueOf(res.Value)
		if !v.IsValid() || v.Kind() != reflect.Slice {
			continue
		}
		for i := 0; i < v.Len(); i++ {
			rows = append(rows, v.Index(i).Interface())
		}
	}
	return rows
}

// decodeBody parses an optional JSON request body; unknown fields are
// rejected so typos fail loudly instead of silently keying a default run.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decode body: %v", err)
		return false
	}
	return true
}

// ---- POST /v1/measure ------------------------------------------------

type measureConfig struct {
	// DeviceType is "type2" (default) or "type3".
	DeviceType string `json:"device_type"`
	LLCBytes   int    `json:"llc_bytes"`
	LLCWays    int    `json:"llc_ways"`
	Cores      int    `json:"cores"`
	SNC        bool   `json:"snc"`
}

type measureRequest struct {
	// Kind is "d2h", "d2d" or "h2d".
	Kind string `json:"kind"`
	// Op is the access: NC-P / NC-rd / NC-wr / CO-rd / CO-wr / CS-rd for
	// d2h and d2d, ld / nt-ld / st / nt-st for h2d.
	Op string `json:"op"`
	// Place primes the caches: cold (default), LLC-1, HMC-1 or DMC-1.
	Place string `json:"place"`
	// Burst is the bandwidth burst length (0 = 16 accesses, the paper's).
	// Reps drives no work: a measurement is one primed access (see
	// cxl2sim.Measurement). It is still validated, keyed and echoed (0
	// echoes 1000), because existing clients send it and the body decoder
	// rejects unknown fields.
	Reps  int `json:"reps"`
	Burst int `json:"burst"`
	// Seed roots the job's seed derivation (0 = the default root seed).
	Seed   int64         `json:"seed"`
	Config measureConfig `json:"config"`
}

// deviceTypes maps the request's device_type names to personalities.
var deviceTypes = map[string]cxl2sim.DeviceType{"": 0, "type2": 0, "type3": cxl2sim.Type3}

type measureResponse struct {
	Kind         string  `json:"kind"`
	Op           string  `json:"op"`
	Place        string  `json:"place"`
	Reps         int     `json:"reps"`
	Burst        int     `json:"burst"`
	Seed         int64   `json:"seed"`
	MedianNs     float64 `json:"median_ns"`
	StdDevNs     float64 `json:"stddev_ns"`
	BandwidthGBs float64 `json:"bandwidth_gbs"`
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req measureRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Place == "" {
		req.Place = "cold"
	}
	if req.Seed == 0 {
		req.Seed = cxl2sim.DefaultRootSeed
	}
	dt, ok := deviceTypes[req.Config.DeviceType]
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown device_type %q (type2, type3)", req.Config.DeviceType)
		return
	}
	c := req.Config
	spec := dist.Spec{Kind: "measure", Measure: &dist.MeasureParams{
		MeasureKind: req.Kind, Op: req.Op, Place: req.Place,
		Reps: req.Reps, Burst: req.Burst, DeviceType: int(dt),
		LLCBytes: c.LLCBytes, LLCWays: c.LLCWays, Cores: c.Cores, SNC: c.SNC,
	}}
	key, ok := specKey(w, spec, req.Seed, "")
	if !ok {
		return
	}
	s.runCached(w, r, key, "measure", func(ctx context.Context) (cached, error) {
		_, results, err := s.run(ctx, spec, req.Seed)
		if err != nil {
			if len(results) == 1 && results[0].Err != nil && !results[0].Panicked && !results[0].Cancelled {
				// A plain job error on this endpoint is a bad measurement
				// request (e.g. DMC-1 priming on a d2h access), not a
				// server fault.
				return cached{}, httpErrorf(http.StatusBadRequest, "%v", results[0].Err)
			}
			return cached{}, err
		}
		m, ok := results[0].Value.(cxl2sim.Measurement)
		if !ok {
			return cached{}, fmt.Errorf("unexpected job result %T", results[0].Value)
		}
		body, err := json.MarshalIndent(measureResponse{
			Kind: req.Kind, Op: req.Op, Place: req.Place,
			Reps: m.Reps, Burst: m.Burst, Seed: req.Seed,
			MedianNs: m.MedianNs, StdDevNs: m.StdDevNs, BandwidthGBs: m.BandwidthGBs,
		}, "", "  ")
		if err != nil {
			return cached{}, err
		}
		return cached{body: append(body, '\n'), contentType: "application/json"}, nil
	})
}

// ---- GET /v1/report --------------------------------------------------

// handleReport serves the report for ?full= and ?seed=. Other query
// parameters are ignored, so an old ?reps= still renders the same bytes.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	full := false
	if v := q.Get("full"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad full %q", v)
			return
		}
		full = b
	}
	seed := int64(cxl2sim.DefaultRootSeed)
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		if n == 0 {
			n = cxl2sim.DefaultRootSeed
		}
		seed = n
	}

	spec := dist.Spec{Kind: "report", Full: full}
	key, ok := specKey(w, spec, seed, "")
	if !ok {
		return
	}
	s.runCached(w, r, key, "report", func(ctx context.Context) (cached, error) {
		sec, results, err := s.run(ctx, spec, seed)
		if err != nil {
			return cached{}, err
		}
		var buf bytes.Buffer
		if err := sec.Render(&buf, results); err != nil {
			return cached{}, err
		}
		return cached{body: buf.Bytes(), contentType: "text/markdown; charset=utf-8"}, nil
	})
}
