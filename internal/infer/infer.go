// Package infer is a deterministic, transaction-level model of an LLM
// inference serving engine whose paged KV cache lives in the simulator's
// real memory system. Requests arrive in an open Poisson stream
// (internal/workload), run a prefill phase and then decode tokens under
// continuous batching, and every KV-cache block they touch is allocated
// from — and read/written through — one of the platform's memory tiers:
//
//   - host DRAM (demand/streaming loads on a host core),
//   - CXL Type-2 device memory under device bias (near-memory D2D reads,
//     the cooperative-computing placement the paper argues for),
//   - the same Type-2 memory under host bias (each D2D access pays the
//     bias check),
//   - a CXL Type-3 expander (host loads over CXL.mem), or
//   - a plain PCIe device (DMA per block, completion + interrupt).
//
// Cold blocks migrate between tiers via the host's DSA copy engine, so
// the spill policies exercise the same datapath as the paper's §VI
// kernel offloads. The serving metrics are the standard ones — TTFT,
// TPOT, goodput — plus per-tier byte counters that make the placement
// visible.
//
// Everything is seeded through internal/rng: a fixed Config.Seed replays
// the identical request stream, schedule and metrics on every run, which
// is what lets the `infer` experiment section render byte-identically in
// serial and parallel suite runs.
package infer

import (
	"fmt"
	"math/rand"

	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/pcie"
	"repro/internal/phys"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Tier identifies a KV-cache placement target. A simulation serves blocks
// from host DRAM plus at most one far tier (the platform has one CXL or
// PCIe device, like the paper's testbed).
type Tier uint8

// Placement tiers.
const (
	// TierDRAM is host socket-0 DRAM, accessed with streaming loads and
	// stores on a host core.
	TierDRAM Tier = iota
	// TierT2Dev is Type-2 device memory under device bias: the device
	// reads its own DRAM through the DCOH without consulting the host.
	TierT2Dev
	// TierT2Host is Type-2 device memory left in host bias: same D2D
	// datapath, but every access pays the host snoop-filter check.
	TierT2Host
	// TierT3 is a CXL Type-3 expander: host loads/stores over CXL.mem.
	TierT3
	// TierPCIe is a conventional PCIe device: each block moves by DMA
	// with completion polling plus an interrupt.
	TierPCIe

	numTiers
)

// String names the tier as the reports do.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "dram"
	case TierT2Dev:
		return "t2-dev"
	case TierT2Host:
		return "t2-host"
	case TierT3:
		return "t3"
	case TierPCIe:
		return "pcie-dma"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// Tiers lists the placement tiers in presentation order.
func Tiers() []Tier { return []Tier{TierDRAM, TierT2Dev, TierT2Host, TierT3, TierPCIe} }

// ModelProfile is the compute side of the model: per-token busy time for
// each phase. These are deliberately *not* timing.Params entries — they
// describe the workload, not the platform, and adding them to the
// canonical parameter set would shift its hash.
type ModelProfile struct {
	// PrefillPerToken is compute per prompt token (prefill is
	// compute-bound; the whole prompt processes in one step).
	PrefillPerToken sim.Time
	// DecodePerToken is compute per generated token (decode is
	// memory-bound; the KV reads dominate on slow tiers).
	DecodePerToken sim.Time
}

// DefaultModel is a small model profile that keeps prefill compute and
// decode KV traffic the same order of magnitude, so tier placement is
// visible in TPOT without drowning TTFT.
func DefaultModel() ModelProfile {
	return ModelProfile{
		PrefillPerToken: 120 * sim.Nanosecond,
		DecodePerToken:  600 * sim.Nanosecond,
	}
}

// Config parameterizes one serving simulation.
type Config struct {
	// Seed drives every random stream (arrivals, request shapes) through
	// derived internal/rng streams.
	Seed int64
	// Requests is how many requests arrive in total.
	Requests int
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
	// PromptMin/PromptMax bound prompt lengths (tokens); the draw is
	// zipfian-skewed toward PromptMin, like production traces.
	PromptMin, PromptMax int
	// DecodeMin/DecodeMax bound generation lengths (tokens).
	DecodeMin, DecodeMax int
	// MaxBatch bounds the continuous batch size.
	MaxBatch int
	// Arrivals optionally replaces the stationary Poisson process (e.g. a
	// workload.Temporal diurnal/burst source). Nil keeps Poisson at
	// RatePerSec — the legacy stream, bit-for-bit.
	Arrivals workload.ArrivalSource
	// Cohorts optionally draws each request's prompt/decode shape from a
	// weighted client-cohort mix instead of the global Prompt*/Decode*
	// bounds. Nil keeps the single-population legacy draw.
	Cohorts *workload.Mix
	// Trace, when set, replays a recorded request stream verbatim:
	// arrivals and shapes come from the trace records and the generator
	// knobs above (Seed's arrival/shape streams, Requests, RatePerSec,
	// Arrivals, Cohorts) are ignored. Run panics on a trace CheckTrace
	// rejects.
	Trace *workload.Trace
	// BlockTokens is the paged-KV block granule in tokens.
	BlockTokens int
	// BytesPerToken is the KV footprint of one token.
	BytesPerToken int
	// DRAMBlocks and FarBlocks size the two block pools.
	DRAMBlocks, FarBlocks int
	// Far selects the far tier backing FarBlocks; TierDRAM means no far
	// tier (all-DRAM serving).
	Far Tier
	// Policy places new blocks and may migrate existing ones. Defaults
	// to AllDRAM.
	Policy Policy
	// Model is the compute profile.
	Model ModelProfile
	// TraceCap, when positive, attaches a device trace ring of that
	// capacity; the buffer is returned in Metrics.Trace.
	TraceCap int
}

// withDefaults fills zero fields with the standard small-model setup.
func (c Config) withDefaults() Config {
	if c.Requests == 0 {
		c.Requests = 48
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 25_000
	}
	if c.PromptMin == 0 {
		c.PromptMin = 24
	}
	if c.PromptMax == 0 {
		c.PromptMax = 64
	}
	if c.DecodeMin == 0 {
		c.DecodeMin = 8
	}
	if c.DecodeMax == 0 {
		c.DecodeMax = 24
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4
	}
	if c.BlockTokens == 0 {
		c.BlockTokens = 16
	}
	if c.BytesPerToken == 0 {
		c.BytesPerToken = 32
	}
	if c.DRAMBlocks == 0 {
		c.DRAMBlocks = 512
	}
	if c.FarBlocks == 0 {
		c.FarBlocks = 512
	}
	if c.Policy == nil {
		c.Policy = AllDRAM{}
	}
	if c.Model == (ModelProfile{}) {
		c.Model = DefaultModel()
	}
	return c
}

// Metrics is the outcome of one serving simulation.
type Metrics struct {
	// Policy and Far echo the configuration.
	Policy string
	Far    Tier
	// Requests completed (always Config.Requests — the loop drains).
	Requests int
	// TTFT and TPOT are per-request samples in microseconds.
	TTFT, TPOT stats.Sample
	// GenTokens counts generated tokens; Elapsed spans first arrival to
	// last completion; Goodput is their ratio in tokens/second.
	GenTokens int
	Elapsed   sim.Time
	Goodput   float64
	// ReadBytes and WriteBytes count KV-block traffic per tier.
	ReadBytes, WriteBytes [numTiers]uint64
	// Migrations and MigratedBytes count DSA cold-block moves.
	Migrations    int
	MigratedBytes uint64
	// Trace is the device trace ring when Config.TraceCap > 0.
	Trace *trace.Buffer
}

// request is one in-flight serving request.
type request struct {
	arrival        sim.Time
	prompt, decode int
	cohort         uint8
	blocks         []*block
	tokensInLast   int
	generated      int
	prefilled      bool
	firstTok       sim.Time
	lastTok        sim.Time
}

// Sim is one serving simulation over a freshly built platform.
type Sim struct {
	cfg   Config
	p     *timing.Params
	host  *host.Host
	dev   *device.Device
	ep    *pcie.Endpoint
	dsa   *host.DSA
	cache *KVCache
	m     Metrics
	step  uint64
}

// New builds the platform and KV pools for cfg.
func New(cfg Config) *Sim {
	cfg = cfg.withDefaults()
	p := timing.Default()
	hcfg := host.Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 4}
	dcfg := device.DefaultConfig()
	// Host-load tiers (T3) need the Type-3 personality; the D2D tiers
	// need Type-2. PCIe and all-DRAM don't touch the CXL device.
	if cfg.Far == TierT3 {
		dcfg.Type = cxl.Type3
	} else {
		dcfg.Type = cxl.Type2
	}
	h := host.MustNew(p, hcfg)
	if _, err := h.Attach(dcfg); err != nil {
		panic(err)
	}
	s := &Sim{cfg: cfg, p: p, host: h, dev: h.Dev, ep: pcie.NewEndpoint(p), dsa: h.NewDSA()}
	s.cache = newKVCache(cfg)
	if cfg.Far == TierT2Dev {
		// Pin the far pool in device bias once, up front: the decode loop
		// then reads it DCOH-locally, the whole point of the placement.
		s.dev.EnterDeviceBias(s.cache.far.span(), 0)
	}
	if cfg.TraceCap > 0 {
		b := trace.NewBuffer(cfg.TraceCap)
		s.dev.SetTracer(b)
		s.m.Trace = b
	}
	s.m.Policy = cfg.Policy.Name()
	s.m.Far = cfg.Far
	return s
}

// Run executes the serving loop to completion and returns the metrics.
// It is deterministic in Config.
func Run(cfg Config) Metrics {
	s := New(cfg)
	s.serve()
	return s.m
}

// genRequests draws the request stream: open-loop arrivals (Poisson or a
// temporal source), zipfian-skewed prompt and decode lengths (most
// requests short, a heavy tail long), optionally per client cohort — or a
// trace replayed verbatim.
func (s *Sim) genRequests() []*request {
	cfg := s.cfg
	if cfg.Trace != nil {
		return s.requestsFromTrace(cfg.Trace)
	}
	arrRng := rng.Derive(cfg.Seed, "infer/arrivals")
	shapeRng := rng.Derive(cfg.Seed, "infer/shape")
	arrivals := cfg.Arrivals
	if arrivals == nil {
		arrivals = workload.Poisson{RatePerSec: cfg.RatePerSec}
	}
	shape := newShapeSampler(cfg)
	reqs := make([]*request, cfg.Requests)
	now := sim.Time(0)
	for i := range reqs {
		now += arrivals.GapAt(arrRng, now)
		cohort, prompt, decode := shape.sample(shapeRng)
		reqs[i] = &request{arrival: now, cohort: cohort, prompt: prompt, decode: decode}
	}
	return reqs
}

// shapeSampler draws request shapes: one zipf pair over the global bounds
// (the legacy single-population stream, preserved draw for draw), or one
// pair per cohort with the cohort picked first.
type shapeSampler struct {
	mix     *workload.Mix
	cohorts []cohortShape
}

type cohortShape struct {
	pZipf, dZipf         *workload.Zipf
	promptMin, decodeMin int
}

func newShapeSampler(cfg Config) *shapeSampler {
	s := &shapeSampler{mix: cfg.Cohorts}
	mk := func(pMin, pMax, dMin, dMax int) cohortShape {
		return cohortShape{
			pZipf:     workload.NewZipf(uint64(pMax-pMin+1), 0.99),
			dZipf:     workload.NewZipf(uint64(dMax-dMin+1), 0.99),
			promptMin: pMin, decodeMin: dMin,
		}
	}
	if s.mix == nil {
		s.cohorts = []cohortShape{mk(cfg.PromptMin, cfg.PromptMax, cfg.DecodeMin, cfg.DecodeMax)}
		return s
	}
	for i := 0; i < s.mix.Len(); i++ {
		c := s.mix.Cohort(i)
		s.cohorts = append(s.cohorts, mk(c.PromptMin, c.PromptMax, c.DecodeMin, c.DecodeMax))
	}
	return s
}

func (s *shapeSampler) sample(rng2 *rand.Rand) (cohort uint8, prompt, decode int) {
	i := 0
	if s.mix != nil {
		i = s.mix.Pick(rng2)
	}
	c := s.cohorts[i]
	prompt = c.promptMin + int(c.pZipf.Next(rng2)%uint64(c.pZipf.N()))
	decode = c.decodeMin + int(c.dZipf.Next(rng2)%uint64(c.dZipf.N()))
	return uint8(i), prompt, decode
}

// CheckTrace reports whether Run(cfg) can replay t: arrivals in order
// (Trace.Validate), every record with a non-empty prompt and decode, and
// every request's worst-case KV footprint within the pools cfg configures.
// Replay treats a failure as a broken contract and panics (clamping a
// record would break bit-for-bit replay), so callers holding outside input
// check here first.
func CheckTrace(t *workload.Trace, cfg Config) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	capacity := cfg.DRAMBlocks + cfg.farBlocks()
	for i, rec := range t.Requests {
		if rec.Prompt == 0 || rec.Decode == 0 {
			return fmt.Errorf("infer: trace record %d has empty prompt/decode", i)
		}
		if n := cfg.blocksFor(int(rec.Prompt) + int(rec.Decode)); n > capacity {
			return fmt.Errorf("infer: trace record %d needs %d KV blocks, pools hold %d", i, n, capacity)
		}
	}
	return nil
}

// requestsFromTrace rebuilds the request stream from a recorded trace,
// panicking on a trace CheckTrace rejects.
func (s *Sim) requestsFromTrace(t *workload.Trace) []*request {
	if err := CheckTrace(t, s.cfg); err != nil {
		panic(err)
	}
	reqs := make([]*request, len(t.Requests))
	for i, rec := range t.Requests {
		reqs[i] = &request{
			arrival: rec.At,
			cohort:  rec.Cohort,
			prompt:  int(rec.Prompt),
			decode:  int(rec.Decode),
		}
	}
	return reqs
}

// GenTrace records the exact request stream Run(cfg) would generate — the
// record side of record/replay. Replaying the result through Config.Trace
// (same platform knobs) reproduces the serving simulation bit for bit.
func GenTrace(cfg Config) *workload.Trace {
	cfg = cfg.withDefaults()
	s := &Sim{cfg: cfg} // genRequests touches only cfg; no platform needed
	reqs := s.genRequests()
	t := &Trace{Workload: "infer", Seed: cfg.Seed, Requests: make([]workload.Request, len(reqs))}
	for i, r := range reqs {
		t.Requests[i] = workload.Request{
			At:     r.arrival,
			Cohort: r.cohort,
			Prompt: uint32(r.prompt),
			Decode: uint32(r.decode),
		}
	}
	return t
}

// Trace aliases the workload trace type for infer callers.
type Trace = workload.Trace

// serve runs the continuous-batching loop: admit arrivals while capacity
// lasts, prefill new sequences, then decode one token per running
// sequence per step.
func (s *Sim) serve() {
	cfg := s.cfg
	reqs := s.genRequests()
	var batch []*request
	nextArrival := 0
	finished := 0
	now := sim.Time(0)
	for finished < len(reqs) {
		// Admission: a request enters the batch only when the pools can
		// hold its worst-case block count, so decode never deadlocks on
		// allocation.
		for nextArrival < len(reqs) && len(batch) < cfg.MaxBatch {
			r := reqs[nextArrival]
			if r.arrival > now {
				break
			}
			if !s.cache.canFit(s.cfg.blocksFor(r.prompt + r.decode)) {
				break
			}
			batch = append(batch, r)
			nextArrival++
		}
		if len(batch) == 0 {
			// Idle: jump to the next arrival.
			now = reqs[nextArrival].arrival
			continue
		}
		stepEnd := now
		s.step++
		for _, r := range batch {
			var done sim.Time
			if !r.prefilled {
				done = s.prefill(r, now)
			} else {
				done = s.decodeOne(r, now)
			}
			if done > stepEnd {
				stepEnd = done
			}
		}
		// Retire finished sequences and let the policy rebalance before
		// the next step observes pool occupancy.
		keep := batch[:0]
		for _, r := range batch {
			if r.prefilled && r.generated >= r.decode {
				s.retire(r, stepEnd)
				finished++
				continue
			}
			keep = append(keep, r)
		}
		batch = keep
		s.cfg.Policy.Rebalance(s, stepEnd)
		now = stepEnd
	}
	s.finalize(reqs)
}

// prefill processes the whole prompt in one step: compute, allocate the
// prompt's KV blocks, stream them out through their tiers, and emit the
// first token.
func (s *Sim) prefill(r *request, now sim.Time) sim.Time {
	cfg := s.cfg
	t := now + sim.Time(r.prompt)*cfg.Model.PrefillPerToken
	remaining := r.prompt * cfg.BytesPerToken
	for remaining > 0 {
		n := min(remaining, s.cache.blockBytes)
		b := s.alloc(Prefill, len(r.blocks), t)
		r.blocks = append(r.blocks, b)
		t = s.writeBlock(b, n, t)
		remaining -= n
	}
	r.tokensInLast = r.prompt % cfg.BlockTokens
	if r.tokensInLast == 0 && r.prompt > 0 {
		r.tokensInLast = cfg.BlockTokens
	}
	r.prefilled = true
	r.generated = 1 // prefill emits the first token
	s.m.GenTokens++
	r.firstTok = t
	r.lastTok = t
	s.m.TTFT.Add(float64(t-r.arrival) / float64(sim.Microsecond))
	return t
}

// decodeOne generates one token for r starting at now: attention reads
// every resident KV block through its tier, compute runs, and the new
// token's KV appends to the tail block.
func (s *Sim) decodeOne(r *request, now sim.Time) sim.Time {
	cfg := s.cfg
	t := now
	for _, b := range r.blocks {
		t = s.readBlock(b, s.cache.blockBytes, t)
	}
	t += cfg.Model.DecodePerToken
	if r.tokensInLast == cfg.BlockTokens {
		b := s.alloc(Decode, len(r.blocks), t)
		r.blocks = append(r.blocks, b)
		r.tokensInLast = 0
	}
	tail := r.blocks[len(r.blocks)-1]
	t = s.writeBlock(tail, cfg.BytesPerToken, t)
	r.tokensInLast++
	r.generated++
	s.m.GenTokens++
	r.lastTok = t
	return t
}

// retire frees a finished request's blocks and folds in its TPOT.
func (s *Sim) retire(r *request, now sim.Time) {
	for _, b := range r.blocks {
		s.cache.release(b)
	}
	r.blocks = nil
	if r.generated > 1 {
		perTok := float64(r.lastTok-r.firstTok) / float64(r.generated-1)
		s.m.TPOT.Add(perTok / float64(sim.Microsecond))
	}
	if r.lastTok > s.m.Elapsed {
		s.m.Elapsed = r.lastTok
	}
	_ = now
}

// finalize computes the aggregate metrics.
func (s *Sim) finalize(reqs []*request) {
	s.m.Requests = len(reqs)
	start := reqs[0].arrival
	if s.m.Elapsed > start {
		s.m.Goodput = float64(s.m.GenTokens) / (float64(s.m.Elapsed-start) / float64(sim.Second))
	}
}

// blocksFor returns how many blocks tokens occupy.
func (c Config) blocksFor(tokens int) int {
	return (tokens + c.BlockTokens - 1) / c.BlockTokens
}

// farBlocks is the far pool's size: none when serving is all-DRAM.
func (c Config) farBlocks() int {
	if c.Far == TierDRAM {
		return 0
	}
	return c.FarBlocks
}

// alloc places a new block via the policy, falling back to the other pool
// when the preferred one is full (admission control guarantees one of
// them has room).
func (s *Sim) alloc(ph Phase, seqBlock int, now sim.Time) *block {
	class := s.cfg.Policy.Place(ph, seqBlock)
	if s.cfg.Far == TierDRAM {
		class = Near // no far tier configured
	}
	b, ok := s.cache.alloc(class)
	if !ok {
		panic("infer: KV pools exhausted despite admission control")
	}
	b.lastUse = s.step
	return b
}

// readBlock reads n bytes of b through its tier's datapath and returns
// the completion time.
func (s *Sim) readBlock(b *block, n int, now sim.Time) sim.Time {
	s.m.ReadBytes[b.tier] += uint64(n)
	b.lastUse = s.step
	return s.access(b.tier, b.addr, n, now, false)
}

// writeBlock writes n bytes to b through its tier's datapath.
func (s *Sim) writeBlock(b *block, n int, now sim.Time) sim.Time {
	s.m.WriteBytes[b.tier] += uint64(n)
	b.lastUse = s.step
	return s.access(b.tier, b.addr, n, now, true)
}

// access is the tier dispatch: every KV byte moves through the memory
// system's real datapaths, which is what differentiates the tiers.
func (s *Sim) access(tier Tier, addr phys.Addr, n int, now sim.Time, write bool) sim.Time {
	switch tier {
	case TierDRAM, TierT3:
		// Streaming host accesses: KV attention is read-once-per-step, so
		// non-temporal ops model it without turning the LLC into a cheat
		// (a temporal load would make every tier an LLC hit after first
		// touch). For T3 the same loop rides CXL.mem to the expander.
		core := s.host.Core(0)
		op := cxl.NtLd
		if write {
			op = cxl.NtSt
		}
		done := now
		for off := 0; off < n; off += phys.LineSize {
			r := core.Access(op, addr+phys.Addr(off), nil, now)
			if r.Done > done {
				done = r.Done
			}
		}
		return done
	case TierT2Dev, TierT2Host:
		// Near-memory D2D: the device's LSU streams the block out of its
		// own DRAM. Under host bias every line pays the bias check.
		if write {
			return s.dev.WriteDevBlock(cxl.NCWrite, addr, nil, n, now)
		}
		return s.dev.ReadDevBlock(cxl.NCRead, addr, n, nil, now)
	case TierPCIe:
		// A conventional accelerator: each block is a descriptor-driven
		// DMA with completion + interrupt — setup-dominated at KV-block
		// sizes.
		tr := s.ep.DMATransfer(n, now, true)
		return tr.Done
	default:
		panic(fmt.Sprintf("infer: access to unconfigured tier %v", tier))
	}
}

// migrate moves b to the far pool via the DSA copy engine. The copy runs
// asynchronously on the DSA resource (it does not stall the serving
// step); the block serves from the far tier from now on.
func (s *Sim) migrate(b *block, now sim.Time) bool {
	dst, ok := s.cache.far.allocAddr()
	if !ok {
		return false
	}
	_, _ = s.dsa.Copy(b.addr, dst, s.cache.blockBytes, now, false)
	s.cache.near.releaseAddr(b.addr)
	b.tier = s.cache.far.tier
	b.addr = dst
	s.m.Migrations++
	s.m.MigratedBytes += uint64(s.cache.blockBytes)
	return true
}
