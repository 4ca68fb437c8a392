package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cxl2sim "repro"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/store"
)

// serveWL is the service pair, each a closed loop of one caller. serve
// sends a mixed stream to an in-process cxlsimd with a durable store under
// a memory cache half the size of the warm set, so the cache tiers, HTTP
// and admission do the work. serve-dist sends only unique requests to a
// coordinator with two dist workers on loopback, so every request misses
// and runs remotely: the dist wire and the coordinator's chunking do the
// work. Both share the front door and have opposite tier mixes.
//
// The loops are closed because open ones did not repeat on the baseline
// machine: after each idle gap a request started with cold caches, and
// the median latency of one commit spread by 20–200% from run to run,
// with or without the speed probe's scaling. A closed loop keeps its
// working set warm, so a slow host shows as a proportional slowdown that
// the probe corrects.
type serveWL struct {
	e       *env
	dist    bool
	slo     time.Duration
	secs    map[int][]cxl2sim.ExperimentSection // by reps
	client  *http.Client
	front   *httpServer
	workers []*httpServer
	srv     *service.Server
	coord   *dist.Coordinator
	dir     string // durable store (serve)

	hot    []plannedReq // serve: the warmed keys
	hotRef [][]byte
	// refs are set-up references of the first planned requests of the
	// first phase, by request seed (serve-dist); the digest covers them.
	refs     map[int64][]byte
	firstRef []int64

	phases int

	// The tracer of the phase being measured, read by the middleware, and
	// the span IDs of each in-flight dist request by its seed, which is
	// how a worker span finds the handler span that caused it.
	tr           atomic.Pointer[tracer]
	bySeed       sync.Map // int64 → [2]uint64{request span, handler span}
	coordAtStart dist.Metrics
	coordAtEnd   dist.Metrics
}

const (
	// hotReps is the hot keys' repetition count. Misses run at coldReps
	// and measureReps so that their compute leaves the 2 CPUs mostly idle
	// even on a slow host: at reps 50 and 200 they held the CPUs near
	// saturation, and latency measured queueing for the CPUs rather than
	// the service layers these workloads are for.
	hotReps     = 50
	coldReps    = 10
	measureReps = 50
	// Request and handler span IDs travel in these headers from the
	// client to the front door's middleware.
	reqHeader  = "X-Cxlperf-Req"
	spanHeader = "X-Cxlperf-Span"
)

// coldSections are the sections cold requests draw from: every section
// but workload, whose ~90 ms render at hotReps would dominate the tail.
var coldSections = []string{"table3", "fig3", "fig4", "fig5", "fig6", "wqsweep", "infer", "cluster"}

// plannedReq is one request of the stream.
type plannedReq struct {
	path    string
	body    []byte
	kind    string // hot, cold, measure, dist
	hot     int    // index into hot (kind hot)
	section string
	reps    int
	seed    int64
}

func sectionReq(kind, section string, reps int, seed int64) plannedReq {
	body, _ := json.Marshal(map[string]any{"reps": reps, "seed": seed})
	return plannedReq{path: "/v1/sections/" + section, body: body, kind: kind, section: section, reps: reps, seed: seed}
}

func setupServe(e *env) (instance, error) {
	s := newServeWL(e, false, 25*time.Millisecond)
	// 16 hot keys: every cold section at two seeds.
	rng := rand.New(rand.NewSource(e.seed))
	cost := 0
	for i := 0; i < 16; i++ {
		p := sectionReq("hot", coldSections[i%len(coldSections)], hotReps, rng.Int63n(1<<30)+1)
		p.hot = i
		ref, err := s.reference(p)
		if err != nil {
			s.close()
			return nil, err
		}
		s.hot = append(s.hot, p)
		s.hotRef = append(s.hotRef, ref)
		cost += len(experiments.SectionKey(p.section, hotReps, p.seed, "text")) + len(ref)
	}
	dir, err := os.MkdirTemp("", "cxlperf-store-")
	if err != nil {
		s.close()
		return nil, err
	}
	s.dir = dir
	srv, err := service.New(service.Config{
		Workers:    e.nproc,
		CacheBytes: int64(cost / 2),
		StoreDir:   dir,
		Log:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if err := s.serve(srv); err != nil {
		s.close()
		return nil, err
	}
	// Warm every hot key into the store; the memory cache keeps about the
	// most recent half.
	for i, p := range s.hot {
		status, _, body, err := s.send(p, nil)
		if err == nil && (status != http.StatusOK || !bytes.Equal(body, s.hotRef[i])) {
			err = fmt.Errorf("status %d, body equal to reference: %v", status, bytes.Equal(body, s.hotRef[i]))
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warming %s seed %d: %w", p.section, p.seed, err)
		}
	}
	s.hotRef[0] = e.reference(s.hotRef[0])
	return s, nil
}

func setupServeDist(e *env) (instance, error) {
	s := newServeWL(e, true, 50*time.Millisecond)
	s.refs = map[int64][]byte{}
	s.coord = dist.NewCoordinator(dist.CoordinatorConfig{
		Workers: e.nproc,
		// The workers register once and never heartbeat.
		StaleAfter: 24 * time.Hour,
	})
	srv, err := service.New(service.Config{
		Workers:     e.nproc,
		Coordinator: s.coord,
		Log:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if err := s.serve(srv); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		w := dist.NewWorker(dist.WorkerConfig{})
		hs, err := startHTTP(s.middleware("dist.worker", w.Handler()))
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, hs)
		if err := s.register(hs.ln.Addr().String()); err != nil {
			s.close()
			return nil, err
		}
	}
	// References for the first requests of the first phase: they pin the
	// digest, and their responses are checked against them.
	first := s.planner(0)
	for i := 0; i < 16; i++ {
		p := first.next()
		ref, err := s.reference(p)
		if err != nil {
			s.close()
			return nil, err
		}
		s.refs[p.seed] = e.reference(ref)
		s.firstRef = append(s.firstRef, p.seed)
	}
	// Warm the coordinator-to-worker connections with requests outside
	// the planned seed range.
	for i := int64(1); i <= 4; i++ {
		p := sectionReq("dist", coldSections[i%int64(len(coldSections))], coldReps, -i)
		if status, _, _, err := s.send(p, nil); err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up request: status %d: %v", status, err)
		}
	}
	return s, nil
}

// newServeWL prepares what both workloads share: the reference sections
// and the client.
func newServeWL(e *env, isDist bool, slo time.Duration) *serveWL {
	return &serveWL{
		e: e, dist: isDist, slo: slo,
		secs: map[int][]cxl2sim.ExperimentSection{
			hotReps:  cxl2sim.ExperimentSections(hotReps),
			coldReps: cxl2sim.ExperimentSections(coldReps),
		},
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     e.nproc,
				MaxIdleConnsPerHost: e.nproc,
				DisableCompression:  true,
			},
		},
	}
}

func (s *serveWL) serve(srv *service.Server) error {
	s.srv = srv
	hs, err := startHTTP(s.middleware("service.handler", srv.Handler()))
	if err != nil {
		return err
	}
	s.front = hs
	return nil
}

// register joins a worker to the coordinator the way a worker's heartbeat
// does.
func (s *serveWL) register(addr string) error {
	body, _ := json.Marshal(map[string]string{"addr": addr, "version": dist.ProtocolVersion()})
	resp, err := s.client.Post(s.front.url()+"/dist/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("register worker: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("register worker: status %d", resp.StatusCode)
	}
	return nil
}

// reference renders a section request serially in-process: the bytes the
// server must answer with.
func (s *serveWL) reference(p plannedReq) ([]byte, error) {
	sec, ok := cxl2sim.ExperimentSectionByName(s.secs[p.reps], p.section)
	if !ok {
		return nil, fmt.Errorf("no section %q", p.section)
	}
	var buf bytes.Buffer
	_, err := cxl2sim.RunExperimentSections(&buf, []cxl2sim.ExperimentSection{sec},
		cxl2sim.JobOptions{Workers: 1, RootSeed: p.seed})
	if err != nil {
		return nil, fmt.Errorf("reference %s seed %d: %w", p.section, p.seed, err)
	}
	return buf.Bytes(), nil
}

func (s *serveWL) digest() string {
	h := sha256.New()
	if s.dist {
		for _, seed := range s.firstRef {
			h.Write(s.refs[seed])
		}
	} else {
		for _, ref := range s.hotRef {
			h.Write(ref)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// serveMix is one round of serve's request kinds: 70% hot keys, 20% cold
// sections, 10% cold measurements.
var serveMix = []string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"cold", "cold", "cold", "cold", "measure", "measure",
}

// planner deals the requests of one phase. Kinds, sections and hot keys
// are dealt from seeded decks, so every run has the same mix in a
// different order, and the first requests of a phase do not depend on
// how many follow.
type planner struct {
	s        *serveWL
	phase, n int
	rng      *rand.Rand
	kinds    *deck[string]
	sections *deck[string]
	hot      *deck[plannedReq]
}

func (s *serveWL) planner(phase int) *planner {
	rng := rand.New(rand.NewSource(s.e.seed*1_000_003 + int64(phase)))
	return &planner{s: s, phase: phase, rng: rng,
		kinds: newDeck(rng, serveMix), sections: newDeck(rng, coldSections), hot: newDeck(rng, s.hot)}
}

func (p *planner) next() plannedReq {
	p.n++
	// Unique per (phase, request) and far above the hot seeds.
	seed := 1<<40 + int64(p.phase)<<24 + int64(p.n)
	kind := "dist"
	if !p.s.dist {
		kind = p.kinds.next()
	}
	switch kind {
	case "hot":
		return p.hot.next()
	case "measure":
		return measureReq(p.rng, seed)
	}
	return sectionReq(kind, p.sections.next(), coldReps, seed)
}

// deck deals items in seeded random order, one full round at a time, so
// every round has each item exactly once.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	left  []T
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] { return &deck[T]{rng: rng, items: items} }

func (d *deck[T]) next() T {
	if len(d.left) == 0 {
		d.left = append([]T(nil), d.items...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// measureReq draws one /v1/measure request from the valid kind/op pairs.
func measureReq(rng *rand.Rand, seed int64) plannedReq {
	kinds := map[string][]string{
		"d2h": {"NC-P", "NC-rd", "NC-wr", "CO-rd", "CO-wr", "CS-rd"},
		"d2d": {"NC-rd", "NC-wr", "CO-rd", "CO-wr", "CS-rd"},
		"h2d": {"ld", "nt-ld", "st", "nt-st"},
	}
	kind := []string{"d2h", "d2d", "h2d"}[rng.Intn(3)]
	op := kinds[kind][rng.Intn(len(kinds[kind]))]
	body, _ := json.Marshal(map[string]any{"kind": kind, "op": op, "reps": measureReps, "seed": seed})
	return plannedReq{path: "/v1/measure", body: body, kind: "measure", seed: seed}
}

// send issues one request and reads the whole response.
func (s *serveWL) send(p plannedReq, tr *tracer) (status int, tier string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, s.front.url()+p.path, bytes.NewReader(p.body))
	if err != nil {
		return 0, "", nil, err
	}
	reqID, handlerID := tr.newID(), tr.newID()
	if tr != nil {
		req.Header.Set(reqHeader, strconv.FormatUint(reqID, 10))
		req.Header.Set(spanHeader, strconv.FormatUint(handlerID, 10))
		if s.dist {
			s.bySeed.Store(p.seed, [2]uint64{reqID, handlerID})
		}
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	tier = resp.Header.Get("X-Cache")
	tr.add(span{ID: reqID, Req: reqID, Name: "client", Tag: p.kind, Detail: p.path}, start, time.Now())
	return resp.StatusCode, tier, body, err
}

func (s *serveWL) measure(window time.Duration, tr *tracer) phase {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	if s.coord != nil {
		s.coordAtStart = s.coord.Snapshot()
	}
	plan := s.planner(s.phases)
	s.phases++
	shed, sloMet := 0, 0
	ph := closedLoop(window, s.e.nproc, func() (time.Duration, float64, error) {
		p := plan.next()
		t0 := time.Now()
		status, tier, body, err := s.send(p, tr)
		d := time.Since(t0)
		if status == http.StatusTooManyRequests {
			shed++
		}
		if err == nil {
			err = s.check(p, status, tier, body)
		}
		if err != nil {
			return d, 0, err
		}
		if d <= s.slo {
			sloMet++
		}
		return d, 1, nil
	})
	ph.shed, ph.sloMet = shed, sloMet
	if s.coord != nil {
		s.coordAtEnd = s.coord.Snapshot()
		if n := s.coordAtEnd.LocalFallbacks - s.coordAtStart.LocalFallbacks; n > 0 {
			ph.fail(fmt.Errorf("coordinator fell back to local execution %d times", n))
		}
	}
	return ph
}

// check validates one response: a hot key must return its reference
// bytes; every other request is unique, so it must be a miss, and a dist
// response must also equal its serial reference.
func (s *serveWL) check(p plannedReq, status int, tier string, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", p.kind, p.path, status, body)
	}
	if p.kind == "hot" {
		if !bytes.Equal(body, s.hotRef[p.hot]) {
			return fmt.Errorf("hot %s seed %d: body differs from the serial reference", p.section, p.seed)
		}
		return nil
	}
	if tier != "miss" {
		return fmt.Errorf("%s %s seed %d: unique request served as %q", p.kind, p.path, p.seed, tier)
	}
	if len(body) == 0 {
		return fmt.Errorf("%s %s seed %d: empty body", p.kind, p.path, p.seed)
	}
	if !s.dist {
		return nil
	}
	// A dist response must equal a serial in-process render of its
	// request. The render runs after the request's timer stops.
	ref, ok := s.refs[p.seed]
	if !ok {
		var err error
		if ref, err = s.reference(p); err != nil {
			return err
		}
	}
	if !bytes.Equal(ref, body) {
		return fmt.Errorf("%s seed %d: distributed body differs from the serial reference", p.section, p.seed)
	}
	return nil
}

// middleware records a span per request around h, taking its IDs from
// the client's headers at the front door, and from the request seed in
// the run request body at a dist worker.
func (s *serveWL) middleware(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sp := span{Name: name, Detail: r.URL.Path}
		if id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64); err == nil {
			sp.Req, sp.Parent = id, id
			sp.ID, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		}
		if name == "dist.worker" {
			raw, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(raw))
			var run struct {
				Seed    int64 `json:"seed"`
				Indices []int `json:"indices"`
			}
			if json.Unmarshal(raw, &run) == nil {
				if ids, ok := s.bySeed.Load(run.Seed); ok {
					sp.Req, sp.Parent = ids.([2]uint64)[0], ids.([2]uint64)[1]
				}
				sp.Detail = fmt.Sprint(run.Indices)
			}
		}
		h.ServeHTTP(w, r)
		sp.Tag = w.Header().Get("X-Cache")
		tr.add(sp, start, time.Now())
	})
}

// layers reports the front door's handler time per cache tier, the tier
// mix, the client's own overhead, the store's direct cost (serve) and the
// dist split between worker runs and everything else (serve-dist). The
// coordinator's counters count from the start of the traced phase.
func (s *serveWL) layers(tr *tracer, traced phase, m metrics) {
	ix := indexSpans(tr.snapshot())
	handlers := ix.byName["service.handler"]
	ok := 0
	for _, t := range serviceTiers {
		ok += len(ix.durationsMs("service.handler", t))
	}
	for _, t := range serviceTiers {
		tier := ix.durationsMs("service.handler", t)
		m.set("service.handler_ms_p50."+t, median(tier))
		m.set("service.tier_frac."+t, ratio(float64(len(tier)), float64(ok)))
	}
	m.set("service.ok_responses", float64(ok))
	var overhead []float64
	for _, c := range ix.byName["client"] {
		overhead = append(overhead, float64(ix.self(c))/1e6)
	}
	m.set("service.client_overhead_ms_p50", median(overhead))
	m.set("service.shed_429", float64(traced.shed))
	m.set("client.slo_frac", ratio(float64(traced.sloMet), float64(traced.attempted)))

	if s.dist {
		m.set("dist.worker_run_ms_p50", median(ix.durationsMs("dist.worker", "")))
		var ovh []float64
		for _, h := range handlers {
			ovh = append(ovh, float64(ix.self(h))/1e6)
		}
		m.set("dist.overhead_ms_p50", median(ovh))
		a, b := s.coordAtStart, s.coordAtEnd
		m.set("dist.chunks_per_request", ratio(float64(b.ChunksDispatched-a.ChunksDispatched), float64(traced.attempted)))
		m.set("dist.local_fallbacks", float64(b.LocalFallbacks-a.LocalFallbacks))
		m.set("dist.chunks_reassigned", float64(b.ChunksReassigned-a.ChunksReassigned))
		return
	}
	if err := s.storeLayers(m); err != nil {
		fmt.Fprintf(s.e.log, "cxlperf: serve: store timing: %v\n", err)
	}
}

// storeLayers times direct store.Put and store.Get calls with the hot
// bodies' sizes, in a store of its own.
func (s *serveWL) storeLayers(m metrics) error {
	dir, err := os.MkdirTemp("", "cxlperf-store-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir, KeyVersion: experiments.CacheKeyVersion})
	if err != nil {
		return err
	}
	var put, get []float64
	for round := 0; round < 4; round++ {
		for i, body := range s.hotRef {
			key := fmt.Sprintf("cxlperf/direct|%d|%d", round, i)
			t0 := time.Now()
			if err := st.Put(store.Entry{Key: key, Body: body, ContentType: "text/plain; charset=utf-8", Status: http.StatusOK}); err != nil {
				return err
			}
			t1 := time.Now()
			e, ok := st.Get(key)
			t2 := time.Now()
			if !ok || !bytes.Equal(e.Body, body) {
				return fmt.Errorf("store lost key %q", key)
			}
			put = append(put, float64(t1.Sub(t0))/1e3)
			get = append(get, float64(t2.Sub(t1))/1e3)
		}
	}
	m.set("store.put_us_p50", median(put))
	m.set("store.get_us_p50", median(get))
	return nil
}

func (s *serveWL) close() {
	if s.front != nil {
		s.front.close()
	}
	for _, w := range s.workers {
		w.close()
	}
	if s.srv != nil {
		_ = s.srv.Shutdown()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &httpServer{ln: ln, srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
	go func() { hs.done <- hs.srv.Serve(ln) }()
	return hs, nil
}

func (h *httpServer) url() string { return "http://" + h.ln.Addr().String() }

// close stops accepting, waits for in-flight requests, and waits for the
// serving goroutine to return.
func (h *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx)
	<-h.done
}
