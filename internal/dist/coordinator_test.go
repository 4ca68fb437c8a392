package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// TestStridePartition pins the dispatch shape: every index lands in
// exactly one chunk, chunk sizes differ by at most one, no chunk is empty,
// and consecutive indices land in different chunks whenever there is more
// than one.
func TestStridePartition(t *testing.T) {
	for n := 0; n <= 64; n++ {
		for k := 1; k <= 8; k++ {
			chunks := stride(n, k)
			if len(chunks) != min(n, k) {
				t.Fatalf("n=%d k=%d: %d chunks", n, k, len(chunks))
			}
			owner := make([]int, n)
			for i := range owner {
				owner[i] = -1
			}
			lo, hi := n, 0
			for c, ch := range chunks {
				lo, hi = min(lo, len(ch.indices)), max(hi, len(ch.indices))
				for _, i := range ch.indices {
					if i < 0 || i >= n || owner[i] != -1 {
						t.Fatalf("n=%d k=%d: index %d out of range or in two chunks", n, k, i)
					}
					owner[i] = c
				}
			}
			for i, c := range owner {
				if c == -1 {
					t.Fatalf("n=%d k=%d: index %d in no chunk", n, k, i)
				}
				if i > 0 && len(chunks) > 1 && owner[i-1] == c {
					t.Fatalf("n=%d k=%d: indices %d and %d share chunk %d", n, k, i-1, i, c)
				}
			}
			if n > 0 && (lo == 0 || hi-lo > 1) {
				t.Fatalf("n=%d k=%d: chunk sizes %d..%d", n, k, lo, hi)
			}
		}
	}
}

// TestDispatchCount: a run costs one request per lane, not one per job.
// A 24-job fig4 section on a two-worker fleet sends window×2 run requests
// and a one-job measurement sends one, counted both by the coordinator
// and at the workers' handlers.
func TestDispatchCount(t *testing.T) {
	specs := map[string]Spec{
		"fig4": {Kind: "section", Section: "fig4", Reps: 1},
		"measure": {Kind: "measure", Measure: &MeasureParams{
			MeasureKind: "d2h", Op: "NC-rd", Place: "cold", Reps: 20}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			jobs, err := spec.BuildJobs()
			if err != nil {
				t.Fatal(err)
			}
			var hits atomic.Uint64
			c := NewCoordinator(CoordinatorConfig{Workers: 1, StaleAfter: time.Hour})
			for range 2 {
				h := NewWorker(WorkerConfig{Workers: 1}).Handler()
				srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					hits.Add(1)
					h.ServeHTTP(rw, r)
				}))
				t.Cleanup(srv.Close)
				addr := strings.TrimPrefix(srv.URL, "http://")
				c.workers[addr] = &workerState{addr: addr, lastSeen: time.Now()}
			}
			if _, err := c.Run(context.Background(), spec, runner.Options{}); err != nil {
				t.Fatal(err)
			}
			want := uint64(min(len(jobs), window*2))
			m := c.Snapshot()
			if m.ChunksDispatched != want || hits.Load() != want {
				t.Fatalf("%d jobs: %d chunks dispatched, %d run requests served; want %d (%+v)",
					len(jobs), m.ChunksDispatched, hits.Load(), want, m)
			}
			if m.RemoteJobs != uint64(len(jobs)) || m.LocalFallbacks != 0 {
				t.Fatalf("not every job ran remotely: %+v", m)
			}
		})
	}
}

// FuzzRunReply drives arbitrary bytes through the coordinator's decode of
// a worker reply to the strided chunk {1, 3}: it must never panic, and
// whatever it accepts must fill every assigned index exactly once.
func FuzzRunReply(f *testing.F) {
	indices := []int{1, 3}
	reply := func(rs ...wireResult) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(runResponse{Results: rs}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	row := func(idx int, v any) wireResult { return wireResult{ID: "fig3/x", Index: idx, Value: v} }
	valid := reply(row(1, []experiments.Fig3Row{{}}), row(3, []experiments.Fig3Row{{}}))
	if _, err := decodeReply(bytes.NewReader(valid), indices); err != nil {
		f.Fatalf("valid reply refused: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                        // truncated
	f.Add(reply(row(1, nil), row(1, nil)))                                             // duplicate index
	f.Add(reply(row(1, nil), row(7, nil)))                                             // index outside the chunk
	f.Add(reply(row(3, nil)))                                                          // short result count
	f.Add(reply(row(1, []experiments.Table3Row{{}}), row(3, []experiments.Fig4Row{}))) // wrong row types
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := decodeReply(bytes.NewReader(data), indices)
		if err != nil {
			return
		}
		seen := map[int]int{}
		for _, r := range rs {
			seen[r.Index]++
		}
		if len(rs) != len(indices) {
			t.Fatalf("accepted %d results for %d indices", len(rs), len(indices))
		}
		for _, idx := range indices {
			if seen[idx] != 1 {
				t.Fatalf("accepted reply fills index %d %d times", idx, seen[idx])
			}
		}
	})
}

// TestBadReplyFailsOver: a worker whose reply is garbage, or a
// well-formed gob stream past the reply cap, loses its chunk — the
// coordinator marks it dead and finishes locally — and the render still
// equals the serial one. Without the cap the oversized reply would decode
// and its fabricated results would land in the render.
func TestBadReplyFailsOver(t *testing.T) {
	spec := Spec{Kind: "section", Section: "fig3", Reps: 4}
	sec, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	render := func(t *testing.T, results []runner.Result) string {
		t.Helper()
		var buf bytes.Buffer
		if err := sec.Render(&buf, results); err != nil {
			t.Fatalf("render: %.200v", err) // a forged error can be megabytes
		}
		return buf.String()
	}
	serial := render(t, runner.Run(sec.Jobs, runner.Options{Workers: 1}))

	replies := map[string]func(http.ResponseWriter, runRequest){
		"garbage": func(rw http.ResponseWriter, _ runRequest) {
			_, _ = rw.Write([]byte("this is not a gob reply"))
		},
		"oversized": func(rw http.ResponseWriter, req runRequest) {
			rs := make([]wireResult, len(req.Indices))
			for i, idx := range req.Indices {
				rs[i] = wireResult{ID: "forged", Index: idx, Err: strings.Repeat("x", maxReplyBytes)}
			}
			_ = gob.NewEncoder(rw).Encode(runResponse{Results: rs})
		},
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				var req runRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(rw, err.Error(), http.StatusBadRequest)
					return
				}
				reply(rw, req)
			}))
			defer bad.Close()
			c := NewCoordinator(CoordinatorConfig{Workers: 1, StaleAfter: time.Hour})
			addr := strings.TrimPrefix(bad.URL, "http://")
			c.workers[addr] = &workerState{addr: addr, lastSeen: time.Now()}

			results, err := c.Run(context.Background(), spec, runner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, results); got != serial {
				t.Fatalf("render after a bad reply differs from serial:\n%s\n----\n%s", got, serial)
			}
			if m := c.Snapshot(); m.ChunksReassigned == 0 || m.LocalFallbacks == 0 || m.WorkersDead != 1 {
				t.Fatalf("bad worker kept its chunk: %+v", m)
			}
		})
	}
}
