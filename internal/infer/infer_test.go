package infer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// run executes a small serving sim with the given far tier and policy.
func run(t *testing.T, far Tier, pol Policy, mut func(*Config)) Metrics {
	t.Helper()
	cfg := Config{Seed: 7, Far: far, Policy: pol}
	if mut != nil {
		mut(&cfg)
	}
	return Run(cfg)
}

func TestRunDeterministic(t *testing.T) {
	for _, far := range Tiers() {
		pol := Policy(StaticSplit{NearBlocks: 2})
		if far == TierDRAM {
			pol = AllDRAM{}
		}
		a := run(t, far, pol, nil)
		b := run(t, far, pol, nil)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("far=%v: two runs with the same seed diverged:\n a=%+v\n b=%+v", far, a, b)
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := Run(Config{Seed: 7})
	b := Run(Config{Seed: 8})
	if a.TTFT.Mean() == b.TTFT.Mean() && a.Elapsed == b.Elapsed {
		t.Fatalf("different seeds produced identical schedules (TTFT %v, elapsed %v)", a.TTFT.Mean(), a.Elapsed)
	}
}

// TestTierOrdering pins the paper-shaped latency ordering the experiment
// section reports: host DRAM beats Type-2 device-bias, which beats the
// same memory under host bias (bias checks), which beats a Type-3
// expander (CXL.mem round trips), which beats PCIe DMA (setup-dominated).
func TestTierOrdering(t *testing.T) {
	tpot := map[Tier]float64{}
	for _, far := range Tiers() {
		pol := Policy(StaticSplit{NearBlocks: 0}) // everything in the far tier
		if far == TierDRAM {
			pol = AllDRAM{}
		}
		m := run(t, far, pol, nil)
		if m.Requests != 48 || m.TPOT.N() == 0 {
			t.Fatalf("far=%v: incomplete run: %+v", far, m)
		}
		tpot[far] = m.TPOT.Mean()
	}
	order := []Tier{TierDRAM, TierT2Dev, TierT2Host, TierT3, TierPCIe}
	for i := 1; i < len(order); i++ {
		lo, hi := order[i-1], order[i]
		if !(tpot[lo] < tpot[hi]) {
			t.Errorf("TPOT ordering violated: %v (%.3fus) !< %v (%.3fus)", lo, tpot[lo], hi, tpot[hi])
		}
	}
}

func TestTierByteAccounting(t *testing.T) {
	m := run(t, TierT3, StaticSplit{NearBlocks: 0}, nil)
	if m.ReadBytes[TierT3] == 0 || m.WriteBytes[TierT3] == 0 {
		t.Fatalf("no far-tier traffic recorded: %+v", m)
	}
	if m.ReadBytes[TierDRAM] != 0 || m.WriteBytes[TierDRAM] != 0 {
		t.Fatalf("split-0 policy leaked KV traffic into DRAM: %+v", m)
	}
	// Every generated token appends BytesPerToken to its tail block.
	wantDecodeWrites := uint64((m.GenTokens - m.Requests) * 32) // decode tokens only
	if m.WriteBytes[TierT3] < wantDecodeWrites {
		t.Fatalf("write bytes %d below decode-token floor %d", m.WriteBytes[TierT3], wantDecodeWrites)
	}
}

func TestLRUSpillMigrates(t *testing.T) {
	m := run(t, TierT2Dev, LRUSpill{LowWater: 8, HighWater: 12}, func(c *Config) {
		c.DRAMBlocks = 16 // force pressure: one batch exhausts DRAM
	})
	if m.Migrations == 0 {
		t.Fatalf("no migrations under DRAM pressure: %+v", m)
	}
	if m.MigratedBytes != uint64(m.Migrations)*16*32 {
		t.Fatalf("migrated bytes %d inconsistent with %d migrations", m.MigratedBytes, m.Migrations)
	}
	if m.ReadBytes[TierT2Dev] == 0 {
		t.Fatalf("spilled blocks never read from the far tier: %+v", m)
	}
	// Spilling must cost TPOT relative to an unpressured all-DRAM run.
	base := run(t, TierT2Dev, AllDRAM{}, nil)
	if !(m.TPOT.Mean() > base.TPOT.Mean()) {
		t.Errorf("spill TPOT %.3fus not above all-DRAM %.3fus", m.TPOT.Mean(), base.TPOT.Mean())
	}
}

func TestPinnedDecodePlacement(t *testing.T) {
	m := run(t, TierT2Dev, PinnedDecode{}, nil)
	if m.WriteBytes[TierDRAM] == 0 {
		t.Fatalf("prefill KV missing from DRAM: %+v", m)
	}
	if m.WriteBytes[TierT2Dev] == 0 || m.ReadBytes[TierT2Dev] == 0 {
		t.Fatalf("decode KV missing from device memory: %+v", m)
	}
	// Only the small decode tail lives in device memory, so pinned-decode
	// must stay far cheaper than pushing the whole KV off-host.
	allDev := run(t, TierT2Dev, StaticSplit{NearBlocks: 0}, nil)
	if !(m.TPOT.Mean() < allDev.TPOT.Mean()) {
		t.Errorf("pinned-decode TPOT %.3fus not below all-device %.3fus",
			m.TPOT.Mean(), allDev.TPOT.Mean())
	}
}

func TestTightPoolsStillDrain(t *testing.T) {
	// Admission control must serialize requests rather than deadlock when
	// the pools barely fit one worst-case sequence.
	m := run(t, TierT2Dev, AllDRAM{}, func(c *Config) {
		c.DRAMBlocks = 6
		c.FarBlocks = 2
		c.Requests = 12
	})
	if m.Requests != 12 || m.TPOT.N() == 0 {
		t.Fatalf("tight pools did not drain: %+v", m)
	}
}

func TestTraceCaptureD2D(t *testing.T) {
	m := run(t, TierT2Dev, StaticSplit{NearBlocks: 0}, func(c *Config) {
		c.TraceCap = 4096
		c.Requests = 4
	})
	if m.Trace == nil || m.Trace.Total() == 0 {
		t.Fatalf("device trace empty despite D2D KV traffic")
	}
}

func TestBlockPoolReuse(t *testing.T) {
	c := newKVCache(Config{BlockTokens: 16, BytesPerToken: 32, DRAMBlocks: 2, FarBlocks: 2, Far: TierT3}.withDefaults())
	a, _ := c.alloc(Near)
	b, _ := c.alloc(Near)
	if _, ok := c.alloc(Near); !ok {
		t.Fatal("near-full alloc should fall back to the far pool")
	}
	c.release(a)
	d, _ := c.alloc(Near)
	if d.addr != a.addr || d.tier != TierDRAM {
		t.Fatalf("freed slot not reused: got %v want %v", d.addr, a.addr)
	}
	_ = b
}

// TestCheckTrace pins the replay precondition: ordering, non-empty
// records, and a per-request KV bound against the pools the config
// actually builds — an all-DRAM run has no far pool, so a record that
// fits DRAM+far still fails there (serving it would never admit).
func TestCheckTrace(t *testing.T) {
	rec := func(at int64, prompt, decode uint32) workload.Request {
		return workload.Request{At: sim.Time(at), Prompt: prompt, Decode: decode}
	}
	// 16-token blocks, 512 DRAM + 512 far by default.
	big := uint32(16*600 - 4) // 600 blocks with a 4-token decode
	far := Config{Far: TierT2Dev}
	cases := []struct {
		name string
		reqs []workload.Request
		cfg  Config
		want string
	}{
		{"ok", []workload.Request{rec(0, 8, 4), rec(5, 30, 2)}, far, ""},
		{"out of order", []workload.Request{rec(9, 8, 4), rec(5, 8, 4)}, far, "before"},
		{"zero prompt", []workload.Request{rec(0, 0, 4)}, far, "empty prompt/decode"},
		{"zero decode", []workload.Request{rec(0, 8, 0)}, far, "empty prompt/decode"},
		{"fits dram+far", []workload.Request{rec(0, big, 4)}, far, ""},
		{"exceeds all-dram", []workload.Request{rec(0, big, 4)}, Config{}, "pools hold 512"},
		{"4e9-token prompt", []workload.Request{rec(0, 4_000_000_000, 1)}, far, "pools hold 1024"},
	}
	for _, c := range cases {
		err := CheckTrace(&workload.Trace{Requests: c.reqs}, c.cfg)
		if c.want == "" && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
