package cluster

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden under test in testdata/ instead of comparing")

// shardedGolden holds the render of every shardedCases and stressCases
// run, each under a "== name" header line. Regenerate with:
//
//	go test ./internal/infer/cluster -run ShardedByteIdentity -update
const shardedGolden = "testdata/sharded.golden"

type shardedCase struct {
	name string
	cfg  Config
}

// shardedCases are the pinned runs: each oversubscription regime and
// router.
func shardedCases() []shardedCase {
	return []shardedCase{
		{"ample", Config{Seed: 11, Replicas: 4, Requests: 48,
			LocalBlocks: 64, SharedBlocks: 256}},
		{"oversub", Config{Seed: 11, Replicas: 4, Requests: 48,
			RatePerSec: 400_000, LocalBlocks: 4, SharedBlocks: 24}},
		{"tiny-shared", Config{Seed: 21, Replicas: 4, Requests: 32,
			RatePerSec: 400_000, LocalBlocks: 1, SharedBlocks: 8}},
		{"least-loaded", Config{Seed: 5, Replicas: 4, Requests: 64,
			RatePerSec: 400_000, LocalBlocks: 4, SharedBlocks: 24,
			Router: NewLeastLoaded()}},
	}
}

// stressCases are the mail-ordering stress runs: a high arrival rate
// over a tiny shared pool makes every decode step exchange
// admit/bundle/reply mail while many same-instant fabric completions
// land at the hub, at several seeds.
func stressCases() []shardedCase {
	var cases []shardedCase
	for _, seed := range []int64{1, 7, 23, 101} {
		cases = append(cases, shardedCase{fmt.Sprintf("stress-%d", seed), Config{
			Seed: seed, Replicas: 4, Expanders: 2, Requests: 96,
			RatePerSec: 1_000_000, LocalBlocks: 2, SharedBlocks: 16,
			MaxBatch: 8,
		}})
	}
	return cases
}

// checkGolden runs cases and requires each render to equal its block in
// shardedGolden exactly. With -update it rewrites the whole golden from
// shardedCases and stressCases instead.
func checkGolden(t *testing.T, cases []shardedCase) {
	t.Helper()
	if *update {
		var all strings.Builder
		for _, tc := range append(shardedCases(), stressCases()...) {
			fmt.Fprintf(&all, "== %s\n%s", tc.name, render(Run(tc.cfg)))
		}
		if err := os.WriteFile(shardedGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(shardedGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, block := range strings.Split(string(raw), "== ")[1:] {
		name, body, _ := strings.Cut(block, "\n")
		want[name] = body
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no %q block in %s (run with -update)", tc.name, shardedGolden)
			}
			if got := render(Run(tc.cfg)); got != w {
				t.Fatalf("render differs from %s:\n--- want ---\n%s--- got ---\n%s",
					shardedGolden, w, got)
			}
		})
	}
}

// TestShardedByteIdentity pins the cluster's bytes: every regime's
// rendered metrics must equal the golden exactly, so a change to the
// merge keys or the cluster model that moves any event shows up here.
func TestShardedByteIdentity(t *testing.T) {
	checkGolden(t, shardedCases())
}

// TestShardedStressCrossShardOrdering hammers the mail merge path with
// stressCases; each seed's render must equal the golden exactly.
func TestShardedStressCrossShardOrdering(t *testing.T) {
	checkGolden(t, stressCases())
}

// TestShardPartitionShape pins the cluster's endpoints: the hub first,
// then one per replica host, with every delivery distance the
// calibrated link latency per side (hosts are two hops apart through the
// hub).
func TestShardPartitionShape(t *testing.T) {
	c := New(Config{Replicas: 3, Expanders: 2})
	eps := c.f.Endpoints()
	if len(eps) != 4 || c.hub != eps[0] {
		t.Fatalf("%d endpoints, hub first = %v; want hub + 3 replicas", len(eps), c.hub == eps[0])
	}
	for i, r := range c.reps {
		if r.ep != eps[1+i] {
			t.Fatalf("replica %d is not endpoint %d", i, 1+i)
		}
	}
	oneWay := c.hub.Dist(c.reps[0].ep)
	if want := c.f.Params().CXL.OneWay; oneWay != want || want <= 0 {
		t.Fatalf("hub→replica distance %v, want the calibrated link latency %v", oneWay, want)
	}
	if got := c.reps[0].ep.Dist(c.reps[1].ep); got != 2*oneWay {
		t.Fatalf("replica→replica distance %v, want %v (two hops via hub)", got, 2*oneWay)
	}
}
