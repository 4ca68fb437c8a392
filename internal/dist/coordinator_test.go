package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

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
