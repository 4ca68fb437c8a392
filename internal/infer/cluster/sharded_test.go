package cluster

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sharded.golden instead of comparing")

// shardedGolden holds the render of every shardedCases and stressCases
// run, each under a "== name" header line. Regenerate with:
//
//	go test ./internal/infer/cluster -run ShardedByteIdentity -update
const shardedGolden = "testdata/sharded.golden"

type shardedCase struct {
	name string
	cfg  Config
}

// shardedCases are the pinned partitioned runs: each oversubscription
// regime and router.
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

// stressCases are the cross-shard ordering stress runs: a high arrival
// rate over a tiny shared pool makes every decode step exchange
// admit/bundle/reply messages while many same-instant fabric
// completions land at the hub, at several seeds.
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

// TestShardedByteIdentity pins the partitioned execution's bytes: every
// regime's rendered metrics must equal the golden exactly, so a change
// to the window loop, the cross-shard merge keys or the cluster model
// that moves any event shows up here.
func TestShardedByteIdentity(t *testing.T) {
	checkGolden(t, shardedCases())
}

// TestShardedStressCrossShardOrdering hammers the cross-shard merge
// path with stressCases; each seed's render must equal the golden
// exactly.
func TestShardedStressCrossShardOrdering(t *testing.T) {
	checkGolden(t, stressCases())
}

// TestShardPartitionShape pins the cluster's partition: the hub shard
// owns the switch and expanders, each replica host its own shard, and
// every cross-shard distance is the calibrated link latency (hosts are
// two hops apart through the hub).
func TestShardPartitionShape(t *testing.T) {
	c := New(Config{Replicas: 3, Expanders: 2})
	ss := c.ss
	if got := ss.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4 (hub + 3 replicas)", got)
	}
	if c.hubShard != 0 {
		t.Fatalf("hub shard = %d, want 0", c.hubShard)
	}
	hub := ss.Shard(0).Nodes()
	if len(hub) != 3 { // sw0 + x0 + x1
		t.Fatalf("hub owns %v, want switch plus both expanders", hub)
	}
	for i, r := range c.reps {
		if got := ss.NodeShard(r.hostID); got != i+1 {
			t.Fatalf("host %s on shard %d, want %d", r.hostID, got, i+1)
		}
	}
	oneWay := ss.Dist(0, 1)
	if oneWay <= 0 {
		t.Fatalf("hub→replica distance %v, want positive lookahead", oneWay)
	}
	if got := ss.Dist(1, 2); got != 2*oneWay {
		t.Fatalf("replica→replica distance %v, want %v (two hops via hub)", got, 2*oneWay)
	}
}
