package dist_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	cxl2sim "repro"
	"repro/internal/dist"
	"repro/internal/infer"
	"repro/internal/workload"
)

// unservableTraces are infer traces that decode but that no placement
// scenario can replay: each must be refused as a bad request wherever a
// Spec enters — never reach a job, where replay panics.
func unservableTraces() map[string][]byte {
	enc := func(reqs ...workload.Request) []byte {
		return (&workload.Trace{Workload: "infer", Requests: reqs}).Encode()
	}
	return map[string][]byte{
		"zero prompt":      enc(workload.Request{At: 0, Prompt: 0, Decode: 8}),
		"out of order":     enc(workload.Request{At: 900, Prompt: 32, Decode: 8}, workload.Request{At: 100, Prompt: 32, Decode: 8}),
		"oversized prompt": enc(workload.Request{At: 0, Prompt: 4_000_000_000, Decode: 8}),
	}
}

// TestSpecKeysPinned pins the exact cache-key strings. They name the
// durable store's entries, so any change re-keys every stored result:
// this must fail first.
func TestSpecKeysPinned(t *testing.T) {
	tr := cxl2sim.RecordInferTrace(7, cxl2sim.InferConfig{Reps: 25})
	measure := func(p dist.MeasureParams) dist.Spec { return dist.Spec{Kind: "measure", Measure: &p} }
	cases := []struct {
		spec   dist.Spec
		seed   int64
		format string
		want   string
	}{
		{dist.Spec{Kind: "section", Section: "fig3", Reps: 25}, 7, "text",
			"v1/section|fig3|reps=25|seed=7|format=text"},
		{dist.Spec{Kind: "section", Section: "table3", Reps: 400}, 1, "json",
			"v1/section|table3|reps=400|seed=1|format=json"},
		{dist.Spec{Kind: "section", Section: "infer", Reps: 25, Trace: tr.Encode()}, 7, "text",
			"v1/section|infer|reps=25|seed=7|format=text|trace=1aedd2edd0f709d7"},
		{dist.Spec{Kind: "report", Reps: 120}, 1, "",
			"v1/report|reps=120|full=false|seed=1"},
		{dist.Spec{Kind: "report", Reps: 3, Full: true}, 5, "",
			"v1/report|reps=3|full=true|seed=5"},
		{measure(dist.MeasureParams{MeasureKind: "d2h", Op: "CS-rd", Place: "LLC-1", Reps: 50, Burst: 8}), 3, "",
			"v1/measure|d2h|CS-rd|LLC-1|reps=50|burst=8|seed=3|cfg{params=4338a614a2c85df5,type=2,llc=62914560/15,cores=32,snc=false}"},
		{measure(dist.MeasureParams{MeasureKind: "h2d", Op: "ld", Place: "cold",
			DeviceType: int(cxl2sim.Type3), LLCBytes: 1 << 20, LLCWays: 8, Cores: 2, SNC: true}), 1, "",
			"v1/measure|h2d|ld|cold|reps=0|burst=0|seed=1|cfg{params=4338a614a2c85df5,type=3,llc=1048576/8,cores=2,snc=true}"},
	}
	for _, c := range cases {
		got, err := c.spec.Key(c.seed, c.format)
		if err != nil {
			t.Errorf("%+v: %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("key drifted:\n got %s\nwant %s", got, c.want)
		}
	}
}

// TestWorkerRejectsUnservableTraces: a worker's run endpoint answers an
// unservable trace with 400 before running anything.
func TestWorkerRejectsUnservableTraces(t *testing.T) {
	addr, _ := startWorker(t, nil)
	for name, tr := range unservableTraces() {
		body, _ := json.Marshal(map[string]any{
			"version": dist.ProtocolVersion(),
			"spec":    dist.Spec{Kind: "section", Section: "infer", Reps: 25, Trace: tr},
			"indices": []int{0},
			"seed":    7,
		})
		resp, err := http.Post("http://"+addr+"/dist/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// FuzzSpec drives arbitrary JSON through the Spec boundary: decoding,
// Key and Build must never panic; a Spec keys iff it builds; a Spec and
// its JSON round trip key identically; and any accepted trace replays
// under the tightest pools the infer section configures (all-DRAM).
func FuzzSpec(f *testing.F) {
	tr := (&workload.Trace{Workload: "infer", Requests: []workload.Request{
		{At: 0, Prompt: 32, Decode: 8}, {At: 500, Prompt: 24, Decode: 12},
	}}).Encode()
	for _, sp := range []dist.Spec{
		{Kind: "section", Section: "fig3", Reps: 4},
		{Kind: "section", Section: "infer", Reps: 25, Trace: tr},
		{Kind: "report", Reps: 3, Full: true},
		{Kind: "measure", Measure: &dist.MeasureParams{MeasureKind: "d2d", Op: "CO-wr", Place: "DMC-1", Reps: 10}},
	} {
		b, _ := json.Marshal(sp)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp dist.Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		key, kerr := sp.Key(7, "text")
		jobs, berr := sp.BuildJobs()
		if (kerr == nil) != (berr == nil) {
			t.Fatalf("Key err %v but Build err %v for %+v", kerr, berr, sp)
		}
		if kerr != nil {
			return
		}
		if len(jobs) == 0 {
			t.Fatalf("accepted spec built no jobs: %+v", sp)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		var again dist.Spec
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatal(err)
		}
		if k2, err := again.Key(7, "text"); err != nil || k2 != key {
			t.Fatalf("round trip re-keyed %q as %q (%v)", key, k2, err)
		}
		if len(sp.Trace) > 0 {
			tr, err := workload.DecodeTrace(sp.Trace)
			if err != nil {
				t.Fatalf("accepted undecodable trace: %v", err)
			}
			if err := infer.CheckTrace(tr, infer.Config{}); err != nil {
				t.Fatalf("accepted a trace infer cannot replay: %v", err)
			}
		}
	})
}
