package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// fullGolden holds fullRender of every regimeCases and stressCases run
// plus the cxlperf cluster shape at two seeds, each under a "== name"
// header line. Regenerate with:
//
//	go test ./internal/infer/cluster -run FullRenderGolden -update
const fullGolden = "testdata/full.golden"

// fullRender writes every observable number of m exactly: each TTFT and
// TPOT sample in the order it was recorded, aggregate and per replica,
// the counters, and every link and port stat. render's medians at
// %.3f can hide a reordered sample; this cannot.
func fullRender(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "router=%s topo=%s elapsed=%d accesses=%d gen=%d goodput=%v\n",
		m.Router, m.TopoKey, int64(m.Elapsed), m.Accesses, m.GenTokens, m.Goodput)
	fmt.Fprintf(&b, "ttft %v\ntpot %v\n", m.TTFT.Values(), m.TPOT.Values())
	for i, r := range m.Replicas {
		fmt.Fprintf(&b, "r%d req=%d gen=%d local=%d shared=%d\nttft %v\ntpot %v\n",
			i, r.Requests, r.GenTokens, r.LocalBytes, r.SharedBytes,
			r.TTFT.Values(), r.TPOT.Values())
	}
	for _, l := range m.Links {
		fmt.Fprintf(&b, "link %+v\n", l)
	}
	for _, p := range m.Ports {
		fmt.Fprintf(&b, "port %+v\n", p)
	}
	return b.String()
}

// fullCases are the regime and stress cases plus the cmd/cxlperf
// cluster shape (8 replicas, 2 expanders, 2048 requests) at seeds 1 and 7.
func fullCases() []shardedCase {
	cases := append(regimeCases(), stressCases()...)
	for _, seed := range []int64{1, 7} {
		cases = append(cases, shardedCase{fmt.Sprintf("cxlperf-%d", seed), Config{
			Seed: seed, Replicas: 8, Expanders: 2, Requests: 2048,
			RatePerSec: 400_000, LocalBlocks: 8, SharedBlocks: 256,
		}})
	}
	return cases
}

// TestFullRenderGolden requires fullRender of every fullCases run to
// equal the golden byte for byte.
func TestFullRenderGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range fullCases() {
		fmt.Fprintf(&got, "== %s\n%s", tc.name, fullRender(Run(tc.cfg)))
	}
	if *update {
		if err := os.WriteFile(fullGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fullGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("render differs from %s at line %d", fullGolden, i+1)
			}
		}
		t.Fatalf("render differs from %s: %d lines, want %d", fullGolden, len(g), len(w))
	}
}
