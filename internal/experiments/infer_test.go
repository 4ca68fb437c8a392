package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestInferTierOrdering pins the section's headline: with the whole KV
// cache in one tier, serving latency orders DRAM < Type-2 device-bias <
// Type-3 < PCIe-DMA, and host bias costs more than device bias on the
// same memory.
func TestInferTierOrdering(t *testing.T) {
	rows := runRows[InferRow](InferJobs(InferConfig{Seed: 42}))
	order := []string{"all-dram", "kv@t2-dev", "kv@t3", "kv@pcie-dma"}
	for i := 1; i < len(order); i++ {
		lo := inferFind(rows, order[i-1])
		hi := inferFind(rows, order[i])
		if !(lo.TPOT < hi.TPOT) {
			t.Errorf("TPOT ordering violated: %s (%.3f) !< %s (%.3f)",
				lo.Scenario, lo.TPOT, hi.Scenario, hi.TPOT)
		}
		if !(lo.TTFTp50 < hi.TTFTp50) {
			t.Errorf("TTFT ordering violated: %s (%.3f) !< %s (%.3f)",
				lo.Scenario, lo.TTFTp50, hi.Scenario, hi.TTFTp50)
		}
		if !(lo.Goodput > hi.Goodput) {
			t.Errorf("goodput ordering violated: %s (%.0f) !> %s (%.0f)",
				lo.Scenario, lo.Goodput, hi.Scenario, hi.Goodput)
		}
	}
	devBias := inferFind(rows, "kv@t2-dev")
	hostBias := inferFind(rows, "kv@t2-host")
	if !(devBias.TPOT < hostBias.TPOT) {
		t.Errorf("device bias (%.3f) should beat host bias (%.3f) on the same memory",
			devBias.TPOT, hostBias.TPOT)
	}
}

func TestInferTraffic(t *testing.T) {
	rows := runRows[InferRow](InferJobs(InferConfig{Seed: 42}))
	if r := inferFind(rows, "all-dram"); r.FarMB != 0 || r.NearMB == 0 {
		t.Errorf("all-dram traffic wrong: %+v", r)
	}
	if r := inferFind(rows, "kv@t3"); r.NearMB != 0 || r.FarMB == 0 {
		t.Errorf("kv@t3 traffic wrong: %+v", r)
	}
	if r := inferFind(rows, "lru-spill"); r.MigrateMB == 0 || r.FarMB == 0 {
		t.Errorf("lru-spill produced no migrations: %+v", r)
	}
	if r := inferFind(rows, "pinned-decode"); r.NearMB == 0 || r.FarMB == 0 {
		t.Errorf("pinned-decode should split traffic: %+v", r)
	}
}

func TestInferJobsDeterministicAcrossRuns(t *testing.T) {
	a := runRows[InferRow](InferJobs(InferConfig{Reps: 30}))
	b := runRows[InferRow](InferJobs(InferConfig{Reps: 30}))
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d diverged across runs:\n a=%+v\n b=%+v", i, a[i], b[i])
		}
	}
}

func TestPrintInferRenders(t *testing.T) {
	var buf bytes.Buffer
	PrintInfer(&buf, runRows[InferRow](InferJobs(InferConfig{Reps: 24})))
	out := buf.String()
	for _, want := range []string{"KV-cache placement", "all-dram", "pinned-decode", "TPOT(us)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
