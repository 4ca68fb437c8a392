package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/runner"
)

// CoordinatorConfig shapes a Coordinator.
type CoordinatorConfig struct {
	// StaleAfter is how long after its last registration a worker is
	// presumed dead (default 3 heartbeat intervals = 6s).
	StaleAfter time.Duration
	// Workers sizes the local runner pool that drains the queue when no
	// remote workers are live (0 = GOMAXPROCS).
	Workers int
	// Log receives operational messages; nil discards them.
	Log *log.Logger
}

// window is the number of lanes per worker, each holding at most one run
// request in flight: one executing, one queued on the worker's semaphore,
// so a finishing worker never idles waiting on a scheduler round trip.
const window = 2

// workerState tracks one registered worker.
type workerState struct {
	addr     string
	lastSeen time.Time
	dead     bool // failed a run or refused the protocol; re-registration resurrects
}

// Metrics is a point-in-time snapshot of the coordinator's counters.
type Metrics struct {
	WorkersLive      int    `json:"workers_live"`
	WorkersDead      int    `json:"workers_dead"`
	ChunksDispatched uint64 `json:"chunks_dispatched"`
	ChunksReassigned uint64 `json:"chunks_reassigned"`
	RemoteJobs       uint64 `json:"remote_jobs"`
	LocalFallbacks   uint64 `json:"local_fallbacks"`
}

// Coordinator shards job sets across registered workers. Distribution is
// invisible in the output: per-job seeds derive from (root seed, job ID)
// and results merge by submission index, so any placement of jobs onto
// workers — including total fleet loss and local fallback — renders the
// same bytes as runner.Run in one process.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client

	mu      sync.Mutex
	workers map[string]*workerState
	stats   Metrics
}

// NewCoordinator builds a Coordinator with no workers registered yet.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 6 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	return &Coordinator{
		cfg:     cfg,
		client:  &http.Client{}, // per-request deadlines come from the run context
		workers: make(map[string]*workerState),
	}
}

// Routes mounts the coordinator's control endpoints on mux.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/v1/register", c.handleRegister)
	mux.HandleFunc("GET /dist/v1/workers", c.handleWorkers)
}

// handleRegister upserts a worker. Registration doubles as heartbeat and
// resurrection: a worker marked dead after a failed run rejoins the pool
// the moment it registers again. Mismatched protocol versions are refused
// with 409 so a mixed-version fleet can never form.
func (c *Coordinator) handleRegister(rw http.ResponseWriter, r *http.Request) {
	var reg registration
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&reg); err != nil {
		http.Error(rw, "bad registration: "+err.Error(), http.StatusBadRequest)
		return
	}
	if reg.Addr == "" {
		http.Error(rw, "registration without addr", http.StatusBadRequest)
		return
	}
	if reg.Version != ProtocolVersion() {
		http.Error(rw, fmt.Sprintf("version mismatch: coordinator %s, worker %s",
			ProtocolVersion(), reg.Version), http.StatusConflict)
		return
	}
	c.mu.Lock()
	ws, ok := c.workers[reg.Addr]
	if !ok {
		ws = &workerState{addr: reg.Addr}
		c.workers[reg.Addr] = ws
		c.cfg.Log.Printf("coordinator: worker %s joined", reg.Addr)
	} else if ws.dead {
		c.cfg.Log.Printf("coordinator: worker %s rejoined", reg.Addr)
	}
	ws.lastSeen = time.Now()
	ws.dead = false
	c.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(map[string]string{"status": "ok", "version": ProtocolVersion()})
}

// handleWorkers lists the fleet for operators and smoke tests.
func (c *Coordinator) handleWorkers(rw http.ResponseWriter, r *http.Request) {
	type row struct {
		Addr     string `json:"addr"`
		Live     bool   `json:"live"`
		LastSeen string `json:"last_seen"`
	}
	now := time.Now()
	c.mu.Lock()
	rows := make([]row, 0, len(c.workers))
	for _, ws := range c.workers {
		rows = append(rows, row{
			Addr:     ws.addr,
			Live:     !ws.dead && now.Sub(ws.lastSeen) <= c.cfg.StaleAfter,
			LastSeen: ws.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Addr < rows[j].Addr })
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(map[string]any{"workers": rows})
}

// liveWorkers snapshots the addresses usable right now.
func (c *Coordinator) liveWorkers() []string {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []string
	for _, ws := range c.workers {
		if !ws.dead && now.Sub(ws.lastSeen) <= c.cfg.StaleAfter {
			live = append(live, ws.addr)
		}
	}
	sort.Strings(live)
	return live
}

// markDead takes a worker out of rotation until it registers again.
func (c *Coordinator) markDead(addr string, reason error) {
	c.mu.Lock()
	if ws, ok := c.workers[addr]; ok && !ws.dead {
		ws.dead = true
		c.cfg.Log.Printf("coordinator: worker %s marked dead: %v", addr, reason)
	}
	c.mu.Unlock()
}

// Snapshot returns the counters with current fleet occupancy filled in.
func (c *Coordinator) Snapshot() Metrics {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.stats
	for _, ws := range c.workers {
		if !ws.dead && now.Sub(ws.lastSeen) <= c.cfg.StaleAfter {
			m.WorkersLive++
		} else {
			m.WorkersDead++
		}
	}
	return m
}

func (c *Coordinator) count(f func(*Metrics)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// maxReplyBytes caps one worker reply. The whole report's results
// gob-encode to about 10 KiB, so the cap leaves ~800x headroom while
// bounding what a confused or hostile worker can make the coordinator
// buffer.
const maxReplyBytes = 8 << 20

// chunk is one dispatch unit: the job indices one run request carries.
type chunk struct{ indices []int }

// stride cuts n job indices into min(n, k) chunks, index i into chunk
// i mod k (k >= 1): chunk sizes differ by at most one, and adjacent jobs
// land in different chunks.
func stride(n, k int) []chunk {
	chunks := make([]chunk, min(n, k))
	for i := range n {
		c := &chunks[i%len(chunks)]
		c.indices = append(c.indices, i)
	}
	return chunks
}

// Run builds the Spec's job list, executes it across the live fleet and
// returns one result per job, in submission order — the same contract as
// runner.Run. opts supplies RootSeed and Context; the error is the Spec's
// own (Build's), never a job's.
//
// Scheduling: each live worker gets window lanes, and the job list is cut
// into one strided chunk per lane, so a run costs each lane one round trip
// rather than one per job. Static chunks still balance: a section's heavy
// jobs sit next to each other (its co-simulation scenarios, the Fig. 8
// variants), striding deals them out to different lanes, and each worker
// runs a chunk's jobs in parallel on its own pool. The chunks sit on a
// shared queue. A lane whose run fails marks its worker dead, requeues its
// chunk and exits — surviving lanes absorb the work. A lane whose run
// fails because the run's context ended requeues its chunk without
// blaming the worker. When a round ends with chunks still pending (every
// lane exited), the fleet is re-snapshotted: new or resurrected workers
// join the next round, and an empty fleet (or an ended context) drains the
// queue locally. The invariant that makes this safe: a chunk is either
// completed exactly once into its result slots, or back on the queue.
func (c *Coordinator) Run(ctx context.Context, spec Spec, opts runner.Options) ([]runner.Result, error) {
	jobs, err := spec.BuildJobs()
	if err != nil || len(jobs) == 0 {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]runner.Result, len(jobs))
	var resMu sync.Mutex

	live := c.liveWorkers()
	chunks := stride(len(jobs), window*max(len(live), 1))
	// Buffered to total capacity so a failing lane can always requeue
	// without blocking — that non-blocking requeue is what upholds the
	// completed-or-queued invariant.
	pending := make(chan chunk, len(chunks))
	for _, ch := range chunks {
		pending <- ch
	}
	remaining := len(chunks)
	var remMu sync.Mutex
	done := make(chan struct{})
	finish := func(n int) {
		remMu.Lock()
		remaining -= n
		if remaining == 0 {
			close(done)
		}
		remMu.Unlock()
	}

	for {
		remMu.Lock()
		left := remaining
		remMu.Unlock()
		if left == 0 {
			return results, nil
		}
		if len(live) == 0 || ctx.Err() != nil {
			// Degraded (or cancelled) mode: drain the whole queue in one
			// in-process pool run. No lane is running, so every pending
			// chunk is on the queue. Under cancellation runner.Run marks
			// the jobs Cancelled, so the caller still gets a full,
			// classifiable result set. Only an empty fleet is a fallback:
			// a cancelled run with live workers runs nothing locally.
			if len(live) == 0 {
				c.count(func(m *Metrics) { m.LocalFallbacks++ })
			}
			c.cfg.Log.Printf("coordinator: running %d chunk(s) locally (%d live workers, context: %v)",
				left, len(live), ctx.Err())
			var idx []int
			var local []runner.Job
			for i := 0; i < left; i++ {
				for _, j := range (<-pending).indices {
					idx = append(idx, j)
					local = append(local, jobs[j])
				}
			}
			rs := runner.Run(local, runner.Options{Workers: c.cfg.Workers, RootSeed: opts.RootSeed, Context: ctx})
			for i, r := range rs {
				r.Index = idx[i]
				results[idx[i]] = r
			}
			finish(left)
			continue
		}

		var wg sync.WaitGroup
		for _, addr := range live {
			quit := make(chan struct{}) // closed on this worker's first failure
			var quitOnce sync.Once
			for lane := 0; lane < window; lane++ {
				wg.Add(1)
				go func(addr string) {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						case <-ctx.Done():
							return
						case <-quit:
							return
						case ch := <-pending:
							c.count(func(m *Metrics) { m.ChunksDispatched++ })
							rs, err := c.runRemote(ctx, addr, spec, ch.indices, opts.RootSeed)
							if err != nil {
								if ctx.Err() == nil { // the worker failed, not the run
									c.markDead(addr, err)
									quitOnce.Do(func() { close(quit) })
									c.count(func(m *Metrics) { m.ChunksReassigned++ })
								}
								pending <- ch
								return
							}
							resMu.Lock()
							for _, r := range rs {
								results[r.Index] = r
							}
							resMu.Unlock()
							c.count(func(m *Metrics) { m.RemoteJobs += uint64(len(rs)) })
							finish(1)
						}
					}
				}(addr)
			}
		}
		wg.Wait()
		// Round over: either done, or failures left chunks on the queue
		// and the loop re-snapshots the fleet for reassignment.
		live = c.liveWorkers()
	}
}

// runRemote ships one chunk to one worker and decodes its results. Any
// transport or protocol failure is returned for the lane to handle.
func (c *Coordinator) runRemote(ctx context.Context, addr string, spec Spec, indices []int, seed int64) ([]runner.Result, error) {
	body, err := json.Marshal(runRequest{
		Version: ProtocolVersion(), Spec: spec, Indices: indices, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/dist/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("worker %s: status %d: %s", addr, resp.StatusCode, bytes.TrimSpace(msg))
	}
	rs, err := decodeReply(resp.Body, indices)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", addr, err)
	}
	return rs, nil
}

// decodeReply decodes one worker's reply to the chunk of the given
// indices. A reply past maxReplyBytes fails the decode like garbage does,
// and the results are validated index by index, so a confused worker can
// never scribble outside its assignment: on a nil error every assigned
// index appears exactly once.
func decodeReply(r io.Reader, indices []int) ([]runner.Result, error) {
	var wire runResponse
	if err := gob.NewDecoder(io.LimitReader(r, maxReplyBytes)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if len(wire.Results) != len(indices) {
		return nil, fmt.Errorf("%d results for %d indices", len(wire.Results), len(indices))
	}
	want := make(map[int]bool, len(indices))
	for _, idx := range indices {
		want[idx] = true
	}
	rs := fromWire(wire.Results)
	for _, r := range rs {
		if !want[r.Index] {
			return nil, fmt.Errorf("unassigned or repeated result index %d", r.Index)
		}
		delete(want, r.Index)
	}
	return rs, nil
}
