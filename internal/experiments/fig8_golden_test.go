package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/ycsb"
)

var update = flag.Bool("update", false, "rewrite testdata/fig8.golden instead of comparing")

// fig8Golden pins every workload-A Fig. 8 co-simulation: the row and the
// diagnostics (including the engine's dispatch count) of each variant, for
// zswap and ksm. Regenerate with:
//
//	go test ./internal/experiments -run Fig8Golden -update
const fig8Golden = "testdata/fig8.golden"

// renderFig8Golden runs each variant of both features on workload A
// under seed 1. zswap runs 120 ms, by which reclaim has
// begun (at 60 ms every variant still reads 0 faults); ksm runs 60 ms.
func renderFig8Golden() string {
	var b strings.Builder
	for _, f := range []struct {
		name string
		run  func(Fig8Variant, ycsb.Workload, Fig8Config, int64) (Fig8Row, Fig8Diag)
		dur  sim.Time
	}{
		{"zswap", Fig8Zswap, 120 * sim.Millisecond},
		{"ksm", Fig8Ksm, 60 * sim.Millisecond},
	} {
		cfg := Fig8Config{Duration: f.dur}
		for _, v := range Fig8Variants() {
			row, diag := f.run(v, ycsb.A, cfg, 1)
			fmt.Fprintf(&b, "== %s/%s\n%+v\n%+v\n", f.name, v, row, diag)
		}
	}
	return b.String()
}

// TestFig8Golden requires the workload-A Fig. 8 runs to render exactly
// the committed bytes, so any change to the event core, the kvs/ksm/zswap
// models or the Fig. 8 driver that moves one event shows up here.
func TestFig8Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation experiment")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; CI runs it in a non-race step")
	}
	got := renderFig8Golden()
	if *update {
		if err := os.WriteFile(fig8Golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig8Golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("Fig. 8 render differs from %s:\n--- want ---\n%s--- got ---\n%s",
			fig8Golden, want, got)
	}
}
