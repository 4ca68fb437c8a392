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
// run, each under a "== name" header line, in goldenCases order.
// Regenerate with:
//
//	go test ./internal/infer/cluster -run ShardedByteIdentity -update
const shardedGolden = "testdata/sharded.golden"

type shardedCase struct {
	name string
	cfg  Config
}

// shardedCases are the pinned runs: each oversubscription regime and
// router, then tieCase.
func shardedCases() []shardedCase {
	return append(regimeCases(), tieCase)
}

// regimeCases are one run per oversubscription regime and router.
func regimeCases() []shardedCase {
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

// tieCase pins a cross-replica same-instant tie: replicas 1 and 7 both
// step at t = 149 025 227 ps, and the engine dispatches the two steps
// in the order they were scheduled.
var tieCase = shardedCase{"tie", Config{Seed: 25, Replicas: 8, Expanders: 3,
	Requests: 64, RatePerSec: 400_000, LocalBlocks: 2, SharedBlocks: 24,
	MaxBatch: 8, Router: NewLeastLoaded()}}

// stressCases are the mail-ordering stress runs: a high arrival rate
// over a tiny shared pool makes every decode step exchange
// admit/bundle/reply mail while many same-instant events land at the
// hub, at several seeds.
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

// goldenCases lists every block of shardedGolden in file order; the tie
// block came last.
func goldenCases() []shardedCase {
	return append(append(regimeCases(), stressCases()...), tieCase)
}

// checkGolden runs cases and requires each render to equal its block in
// shardedGolden exactly. With -update it rewrites the whole golden from
// goldenCases instead.
func checkGolden(t *testing.T, cases []shardedCase) {
	t.Helper()
	if *update {
		var all strings.Builder
		for _, tc := range goldenCases() {
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
// rendered metrics, and the tie's, must equal the golden exactly, so a
// change to the engine's tie order or the cluster model that moves any
// event shows up here.
func TestShardedByteIdentity(t *testing.T) {
	checkGolden(t, shardedCases())
}

// TestShardedStressCrossShardOrdering hammers the hub–replica mail path
// with stressCases; each seed's render must equal the golden exactly.
func TestShardedStressCrossShardOrdering(t *testing.T) {
	checkGolden(t, stressCases())
}
