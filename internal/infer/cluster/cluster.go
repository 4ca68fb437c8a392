// Package cluster scales the single-instance serving model of
// internal/infer to a multi-host CXL cluster: N serving replicas — each a
// full host with its own cores, LLC and local DRAM block pool — draw
// overflow KV-cache blocks from shared Type-3 expanders behind a CXL
// switch (a fabric.Star topology). A pluggable router spreads the open
// request stream across replicas (round-robin, least-loaded,
// session-affinity), each replica runs its own continuous-batching loop
// with reservation-based admission, and every shared-block access rides
// the fabric — so switch-port arbitration and expander bandwidth show up
// directly in TTFT/TPOT when the shared pool is oversubscribed.
//
// The simulation executes on the fabric's conservative-PDES shard
// partition (fabric.ShardSet): the switch hub and the shared expanders
// form one shard that owns routing, admission, the block pools and every
// fabric transfer, and each replica host is its own shard running the
// batching loop and local-DRAM compute. The two sides interact only
// through typed cross-shard messages:
//
//	admit  (hub → replica)  a request with its KV blocks pre-assigned
//	bundle (replica → hub)  one batching step's shared-memory work
//	reply  (hub → replica)  completions for that step, plus the next
//	                        step's prefetched attention reads
//
// Every per-request block is assigned at admission (local-first, shared
// overflow), so replicas never negotiate allocation mid-flight, and the
// attention reads for decode step k+1 are issued when step k's bundle
// reaches the hub — a depth-1 prefetch that both overlaps fabric latency
// with compute and gives each shard a full link latency of lookahead.
//
// The whole simulation is seeded (internal/rng derived streams) and
// replays byte-identical metrics for a fixed Config at ANY worker count,
// including Shards: 1 (inline): cross-shard messages merge by
// (timestamp, source shard, source sequence), so the event order never
// depends on scheduling. The `cluster` experiment section leans on that
// to render identically in serial, parallel and sharded suite runs.
package cluster

import (
	"fmt"

	"repro/internal/cxl"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/infer"
	"repro/internal/phys"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workload"
)

// localPoolBase places each replica's local KV pool in host DRAM, clear
// of the regions the figures use (same base as infer's near pool).
const localPoolBase = phys.Addr(4 << 30)

// Config parameterizes one cluster serving simulation.
type Config struct {
	// Seed drives every random stream (arrivals, shapes, sessions)
	// through derived internal/rng streams.
	Seed int64
	// Replicas is the number of serving hosts; Expanders the number of
	// shared Type-3 pools behind the switch.
	Replicas, Expanders int
	// Requests is the total request count; RatePerSec the Poisson
	// arrival rate of the open stream.
	Requests   int
	RatePerSec float64
	// PromptMin/Max and DecodeMin/Max bound request shapes (tokens),
	// zipf-skewed toward the minimum like the single-instance model.
	PromptMin, PromptMax int
	DecodeMin, DecodeMax int
	// Sessions is how many distinct client sessions the stream draws
	// from (zipf-skewed: a few sessions dominate), the signal the
	// affinity router exploits.
	Sessions int
	// MaxBatch bounds each replica's continuous batch.
	MaxBatch int
	// BlockTokens and BytesPerToken shape the paged KV cache.
	BlockTokens, BytesPerToken int
	// LocalBlocks sizes each replica's local DRAM pool; SharedBlocks
	// sizes each expander's shared pool. Replicas spill to the shared
	// pool when local runs out, so LocalBlocks < working set puts
	// traffic on the fabric.
	LocalBlocks, SharedBlocks int
	// Router spreads requests across replicas. Routers are stateful and
	// single-use: construct a fresh one per Run. Nil means round-robin.
	Router Router
	// PortCredits sizes the switch's per-egress-port credit pool. The
	// cluster default is 2 — a modest store-and-forward buffer, so a few
	// replicas hammering one expander link queue visibly at the port
	// instead of vanishing into deep buffering.
	PortCredits int
	// Model is the per-token compute profile (shared with infer).
	Model infer.ModelProfile

	// Shards is the worker-goroutine budget for the sharded execution.
	// The model always partitions into one engine per replica host plus
	// the hub; Shards only picks how many OS workers drive them (0 and 1
	// both run inline on the caller). Metrics are byte-identical at
	// every value, so this is a pure speed knob and stays out of cache
	// and canonical keys.
	Shards int
	// Recruit, when non-nil and Shards > 1, borrows up to n extra
	// worker slots from an external pool (the experiment runner's
	// parallelism budget) and returns how many it got plus a release.
	// The run proceeds with 1+got workers so shard workers and suite
	// workers never oversubscribe the machine together.
	Recruit func(n int) (got int, release func())
}

// withDefaults fills zero fields with a small 2-replica setup whose
// working set spills to the shared pool.
func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Expanders == 0 {
		c.Expanders = 1
	}
	if c.Requests == 0 {
		c.Requests = 64
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
	if c.Sessions == 0 {
		c.Sessions = 12
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
	if c.LocalBlocks == 0 {
		c.LocalBlocks = 16
	}
	if c.SharedBlocks == 0 {
		c.SharedBlocks = 256
	}
	if c.PortCredits == 0 {
		c.PortCredits = 2
	}
	if c.Router == nil {
		c.Router = NewRoundRobin()
	}
	if c.Model == (infer.ModelProfile{}) {
		c.Model = infer.DefaultModel()
	}
	return c
}

// Topology returns the fabric topology the configuration compiles to: a
// Star of Replicas hosts and Expanders Type-3 pools behind one switch.
func (c Config) Topology() fabric.Topology {
	c = c.withDefaults()
	return fabric.Star(c.Replicas, c.Expanders,
		fabric.NodeSpec{LLCBytes: 1 << 20, LLCWays: 16, Cores: 4},
		fabric.NodeSpec{PortCredits: c.PortCredits},
		fabric.LinkSpec{})
}

// ReplicaMetrics is one replica's serving outcome.
type ReplicaMetrics struct {
	Requests   int
	TTFT, TPOT stats.Sample
	GenTokens  int
	// LocalBytes and SharedBytes count KV payload served from the
	// replica's own DRAM pool vs the shared expanders.
	LocalBytes, SharedBytes uint64
}

// Metrics is the outcome of one cluster simulation.
type Metrics struct {
	Router   string
	Replicas []ReplicaMetrics
	// TTFT and TPOT aggregate every request (microseconds).
	TTFT, TPOT stats.Sample
	GenTokens  int
	Elapsed    sim.Time
	Goodput    float64
	// Links and Ports are the fabric's per-link traffic and switch
	// arbitration stats.
	Links []fabric.LinkStat
	Ports []fabric.PortStat
	// TopoKey is the compiled topology's canonical key: it names the
	// fabric the run served on.
	TopoKey string
	// Accesses counts simulated KV block accesses (the event measure for
	// runner accounting).
	Accesses uint64
}

// SwitchWaited sums arbitration wait across all switch egress ports.
func (m *Metrics) SwitchWaited() sim.Time {
	var w sim.Time
	for _, p := range m.Ports {
		w += p.Waited
	}
	return w
}

// PeakQueue returns the deepest egress-port queue seen anywhere.
func (m *Metrics) PeakQueue() int {
	q := 0
	for _, p := range m.Ports {
		if p.PeakQueue > q {
			q = p.PeakQueue
		}
	}
	return q
}

// creq is one in-flight request. The hub owns it from arrival through
// admission (assigning every KV block it will ever use), the replica
// owns it while a step computes, and the hub again while a bundle is in
// flight — each handoff rides a cross-shard message, so ownership never
// overlaps.
type creq struct {
	id             int
	arrival        sim.Time
	session        uint32
	prompt, decode int
	rep            *replica
	// blocks is the request's full KV block assignment, fixed at
	// admission: the local blocks first, shared overflow after.
	// resident marks the prefix actually holding KV so far.
	blocks       []cblock
	resident     int
	tokensInLast int
	generated    int
	prefilled    bool
	firstTok     sim.Time
	lastTok      sim.Time

	// Per-step scratch, written by the replica at step time and
	// completed by the hub at bundle time.
	actPrefill bool
	shFrom     int      // first shared block of the prefill chain, -1 if none
	shStart    sim.Time // when the local prefill chain hands off to the fabric
	tailWrite  bool     // this decode's token append lands on a shared block
	tailStart  sim.Time
	stepDone   sim.Time
	// sharedReady is when the NEXT decode step's shared attention reads
	// complete — issued by the hub at bundle time (depth-1 prefetch).
	sharedReady sim.Time
}

// cblock is one allocated KV block: a local DRAM address or a shared
// slot on an expander.
type cblock struct {
	shared bool
	exp    int       // expander index when shared
	addr   phys.Addr // local address when !shared
}

// bundle carries one batching step hub-ward: every request that computed
// this step (acted, in batch order) and the subset that finished
// (retired). The same struct rides the reply back and is recycled.
type bundle struct {
	rep     *replica
	e       sim.Time // the step's start time
	acted   []*creq
	retired []*creq
}

func (b *bundle) reset() {
	clear(b.acted)
	clear(b.retired)
	b.acted = b.acted[:0]
	b.retired = b.retired[:0]
}

// replica is one serving host's shard-side state: the continuous batch
// and the compute path through the host's own memory system. Queues and
// pools live hub-side.
type replica struct {
	c      *Cluster
	idx    int
	hostID string
	sh     *fabric.Shard
	core   *host.Core

	pending   []*creq // admitted, joining at the next step
	batch     []*creq
	scheduled bool // a step event is queued on the shard engine
	awaiting  bool // a bundle is at the hub; no step may run

	bundles []*bundle // free list

	localAccesses uint64
	m             ReplicaMetrics

	// Bound once at New so event scheduling never allocates.
	admitFn, stepFn, replyFn func(any)
}

// mirror is the hub's authoritative view of one replica's admission
// state: its local free list, its routed queue, and how many admitted
// requests it still holds.
type mirror struct {
	localFree []phys.Addr
	queue     []*creq
	batchN    int
}

// sharedSlot is one free shared block.
type sharedSlot struct{ exp int }

// reqOutcome is a request's final numbers, written by its owning
// replica at reply time (indices are disjoint across replicas) and
// folded into the global Sample in request-id order at finalize — the
// step that makes aggregate metrics independent of shard interleaving.
type reqOutcome struct {
	ttft    float64
	tpot    float64
	hasTPOT bool
	lastTok sim.Time
}

// Cluster is one compiled cluster simulation.
type Cluster struct {
	cfg        Config
	p          *timing.Params
	f          *fabric.Fabric
	ss         *fabric.ShardSet
	hub        *fabric.Shard
	hubShard   int
	reps       []*replica
	repShard   []int
	expIDs     []string
	blockBytes int
	m          Metrics

	// Hub-owned coordinator state, touched only inside hub events.
	sharedFree     []sharedSlot
	mirrors        []mirror
	arrivalsLeft   int
	finishedN      int
	totalN         int
	sharedAccesses uint64

	outcomes []reqOutcome

	arrivalFn, bundleFn func(any)
}

// New compiles the cluster: fabric, shard partition, replicas, pools.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	p := timing.Default()
	c := &Cluster{
		cfg:        cfg,
		p:          p,
		f:          fabric.MustBuild(cfg.Topology(), p, fabric.Shards(1)),
		blockBytes: cfg.BlockTokens * cfg.BytesPerToken,
	}
	c.ss = c.f.ShardSet()
	c.expIDs = c.f.Expanders()
	c.hubShard = c.ss.NodeShard(c.expIDs[0])
	c.hub = c.ss.Shard(c.hubShard)
	c.arrivalFn = c.onArrival
	c.bundleFn = c.onBundle
	for i, id := range c.f.Hosts() {
		r := &replica{
			c: c, idx: i, hostID: id,
			sh:   c.ss.Shard(c.ss.NodeShard(id)),
			core: c.f.Host(id).Core(0),
		}
		r.admitFn = r.onAdmit
		r.stepFn = r.onStep
		r.replyFn = r.onReply
		c.reps = append(c.reps, r)
		c.repShard = append(c.repShard, r.sh.ID())
		var mir mirror
		for b := cfg.LocalBlocks - 1; b >= 0; b-- {
			mir.localFree = append(mir.localFree,
				localPoolBase+phys.Addr(b*c.blockBytes))
		}
		c.mirrors = append(c.mirrors, mir)
	}
	// Stripe the shared free list round-robin across expanders so
	// allocation spreads load before any expander saturates.
	for b := 0; b < cfg.SharedBlocks; b++ {
		for x := 0; x < cfg.Expanders; x++ {
			c.sharedFree = append(c.sharedFree, sharedSlot{exp: x})
		}
	}
	c.m.Router = cfg.Router.Name()
	c.m.TopoKey = cfg.Topology().CanonicalKey(p)
	return c
}

// Run executes the cluster simulation to completion. Deterministic in
// Config — including across Shards values, which only change wall-clock
// speed.
func Run(cfg Config) Metrics {
	c := New(cfg)
	c.run()
	return c.m
}

// NumReplicas and Load expose routing signals: Load is a replica's
// queued plus admitted-unretired request count, as the hub sees it.
func (c *Cluster) NumReplicas() int { return len(c.reps) }
func (c *Cluster) Load(i int) int   { return len(c.mirrors[i].queue) + c.mirrors[i].batchN }

// genRequests draws the seeded open request stream.
func (c *Cluster) genRequests() []*creq {
	cfg := c.cfg
	arrRng := rng.Derive(cfg.Seed, "cluster/arrivals")
	shapeRng := rng.Derive(cfg.Seed, "cluster/shape")
	sessRng := rng.Derive(cfg.Seed, "cluster/session")
	pZipf := workload.NewZipf(uint64(cfg.PromptMax-cfg.PromptMin+1), 0.99)
	dZipf := workload.NewZipf(uint64(cfg.DecodeMax-cfg.DecodeMin+1), 0.99)
	sZipf := workload.NewZipf(uint64(cfg.Sessions), 0.99)
	arrivals := workload.Poisson{RatePerSec: cfg.RatePerSec}
	capacity := cfg.LocalBlocks + cfg.SharedBlocks*cfg.Expanders
	reqs := make([]*creq, cfg.Requests)
	now := sim.Time(0)
	for i := range reqs {
		now += arrivals.GapAt(arrRng, now)
		r := &creq{
			id:      i,
			arrival: now,
			session: uint32(sZipf.Next(sessRng) % uint64(cfg.Sessions)),
			prompt:  cfg.PromptMin + int(pZipf.Next(shapeRng)%uint64(pZipf.N())),
			decode:  cfg.DecodeMin + int(dZipf.Next(shapeRng)%uint64(dZipf.N())),
		}
		if w := c.blocksFor(r.prompt + r.decode); w > capacity {
			panic(fmt.Sprintf("cluster: request needs %d KV blocks, pools hold %d", w, capacity))
		}
		reqs[i] = r
	}
	return reqs
}

// run schedules the arrival stream on the hub engine and drives the
// shard set to quiescence.
func (c *Cluster) run() {
	reqs := c.genRequests()
	c.outcomes = make([]reqOutcome, len(reqs))
	c.totalN = len(reqs)
	c.arrivalsLeft = len(reqs)
	eng := c.hub.Engine()
	for _, q := range reqs {
		eng.AtCall(q.arrival, c.arrivalFn, q)
	}
	workers := c.cfg.Shards
	if workers < 1 {
		workers = 1
	}
	if n := c.ss.NumShards(); workers > n {
		workers = n
	}
	if workers > 1 && c.cfg.Recruit != nil {
		got, release := c.cfg.Recruit(workers - 1)
		defer release()
		workers = 1 + got
	}
	c.ss.Run(workers)
	c.finalize(reqs)
}

// onArrival routes one request (hub event at its arrival time) and
// tries admission on the target replica.
func (c *Cluster) onArrival(arg any) {
	q := arg.(*creq)
	tgt := c.cfg.Router.Route(routeView(q), c)
	if tgt < 0 || tgt >= len(c.reps) {
		panic(fmt.Sprintf("cluster: router %s routed to replica %d of %d",
			c.cfg.Router.Name(), tgt, len(c.reps)))
	}
	c.mirrors[tgt].queue = append(c.mirrors[tgt].queue, q)
	c.arrivalsLeft--
	c.admitRep(tgt, c.hub.Engine().Now())
	c.starveCheck()
}

// admitRep admits from replica i's queue while capacity allows,
// assigning every block the request will ever use — local pool first,
// shared overflow after. Worst-case assignment up front means replicas
// drawing from the shared pool can never deadlock each other
// mid-decode, and the replica never asks the hub for blocks mid-flight.
func (c *Cluster) admitRep(i int, now sim.Time) {
	cfg := &c.cfg
	mir := &c.mirrors[i]
	for len(mir.queue) > 0 && mir.batchN < cfg.MaxBatch {
		q := mir.queue[0]
		w := c.blocksFor(q.prompt + q.decode)
		l := min(len(mir.localFree), w)
		s := w - l
		if len(c.sharedFree) < s {
			return
		}
		if cap(q.blocks) < w {
			q.blocks = make([]cblock, 0, w)
		}
		for j := 0; j < l; j++ {
			a := mir.localFree[len(mir.localFree)-1]
			mir.localFree = mir.localFree[:len(mir.localFree)-1]
			q.blocks = append(q.blocks, cblock{addr: a})
		}
		for j := 0; j < s; j++ {
			slot := c.sharedFree[0]
			c.sharedFree = c.sharedFree[1:]
			q.blocks = append(q.blocks, cblock{shared: true, exp: slot.exp})
		}
		q.rep = c.reps[i]
		mir.queue = mir.queue[1:]
		mir.batchN++
		c.hub.Send(c.repShard[i], now, c.reps[i].admitFn, q)
	}
}

// admitAll sweeps every replica in index order — the deterministic
// admission pass after frees return capacity.
func (c *Cluster) admitAll(now sim.Time) {
	for i := range c.mirrors {
		c.admitRep(i, now)
	}
}

// starveCheck panics when the stream can no longer be served: arrivals
// exhausted, nothing in flight anywhere to free capacity, but requests
// still queued.
func (c *Cluster) starveCheck() {
	if c.finishedN >= c.totalN || c.arrivalsLeft > 0 {
		return
	}
	queued := false
	for i := range c.mirrors {
		if c.mirrors[i].batchN > 0 {
			return
		}
		if len(c.mirrors[i].queue) > 0 {
			queued = true
		}
	}
	if queued {
		panic("cluster: starved — shared pool too small for any admission")
	}
}

// onAdmit (replica event) books an admitted request into the next step,
// waking the batching loop if it was idle.
func (r *replica) onAdmit(arg any) {
	q := arg.(*creq)
	r.pending = append(r.pending, q)
	if !r.scheduled && !r.awaiting {
		r.scheduled = true
		r.sh.Engine().AtCall(r.sh.Engine().Now(), r.stepFn, nil)
	}
}

// onStep (replica event) runs one continuous-batching step: fold in
// pending admissions, compute every request's local share, and bundle
// the step's shared-memory work to the hub.
func (r *replica) onStep(any) {
	r.scheduled = false
	e := r.sh.Engine().Now()
	r.batch = append(r.batch, r.pending...)
	r.pending = r.pending[:0]
	b := r.getBundle()
	b.e = e
	for _, q := range r.batch {
		if !q.prefilled {
			r.prefillLocal(q, e)
		} else {
			r.decodeLocal(q, e)
		}
		b.acted = append(b.acted, q)
	}
	keep := r.batch[:0]
	for _, q := range r.batch {
		if q.generated >= q.decode {
			b.retired = append(b.retired, q)
			continue
		}
		keep = append(keep, q)
	}
	r.batch = keep
	r.awaiting = true
	r.sh.Send(r.c.hubShard, e, r.c.bundleFn, b)
}

func (r *replica) getBundle() *bundle {
	if n := len(r.bundles); n > 0 {
		b := r.bundles[n-1]
		r.bundles = r.bundles[:n-1]
		return b
	}
	return &bundle{rep: r}
}

// prefillLocal processes the whole prompt: compute, then stream the KV
// out block by block. The local prefix of the chain runs here; if the
// assignment spills to shared blocks, the handoff time is recorded and
// the hub continues the chain over the fabric.
func (r *replica) prefillLocal(q *creq, e sim.Time) {
	cfg := &r.c.cfg
	t := e + sim.Time(q.prompt)*cfg.Model.PrefillPerToken
	q.actPrefill = true
	q.shFrom = -1
	remaining := q.prompt * cfg.BytesPerToken
	for i := 0; remaining > 0; i++ {
		n := min(remaining, r.c.blockBytes)
		blk := q.blocks[i]
		if blk.shared {
			q.shFrom = i
			q.shStart = t
			r.m.SharedBytes += uint64(remaining)
			break
		}
		t = r.accessLocal(blk, n, t, true)
		remaining -= n
	}
	q.resident = r.c.blocksFor(q.prompt)
	q.tokensInLast = q.prompt % cfg.BlockTokens
	if q.tokensInLast == 0 && q.prompt > 0 {
		q.tokensInLast = cfg.BlockTokens
	}
	q.prefilled = true
	q.generated = 1
	r.m.GenTokens++
	if q.shFrom < 0 {
		q.firstTok, q.lastTok, q.stepDone = t, t, t
	}
}

// decodeOne generates one token: attention reads every resident block —
// local ones through the replica's memory system now, shared ones
// already in flight since the previous bundle (sharedReady) — compute
// runs, and the token's KV appends to the tail block.
func (r *replica) decodeLocal(q *creq, e sim.Time) {
	cfg := &r.c.cfg
	q.actPrefill = false
	// Local attention reads issue concurrently at step start; compute
	// waits for the slowest of them and for the prefetched shared reads.
	// This memory-level parallelism is what makes shared-pool
	// oversubscription visible as switch queueing: a loaded fabric pushes
	// sharedReady past the local reads and stretches the token.
	t := e
	for _, blk := range q.blocks[:q.resident] {
		if blk.shared {
			r.m.SharedBytes += uint64(r.c.blockBytes)
			continue
		}
		if done := r.accessLocal(blk, r.c.blockBytes, e, false); done > t {
			t = done
		}
	}
	if q.sharedReady > t {
		t = q.sharedReady
	}
	t += cfg.Model.DecodePerToken
	if q.tokensInLast == cfg.BlockTokens {
		q.resident++
		q.tokensInLast = 0
	}
	tail := q.blocks[q.resident-1]
	if tail.shared {
		q.tailWrite = true
		q.tailStart = t
		r.m.SharedBytes += uint64(cfg.BytesPerToken)
	} else {
		q.tailWrite = false
		t = r.accessLocal(tail, cfg.BytesPerToken, t, true)
		q.stepDone = t
		q.lastTok = t
	}
	q.tokensInLast++
	q.generated++
	r.m.GenTokens++
}

// onBundle (hub event) completes one replica step's shared-memory work:
// issue its fabric transfers in batch order, prefetch the next step's
// attention reads, free retired blocks, re-run admission, and reply.
func (c *Cluster) onBundle(arg any) {
	b := arg.(*bundle)
	r := b.rep
	now := c.hub.Engine().Now()
	cfg := &c.cfg
	for _, q := range b.acted {
		if q.actPrefill {
			if q.shFrom < 0 {
				continue
			}
			t := q.shStart
			remaining := q.prompt*cfg.BytesPerToken - q.shFrom*c.blockBytes
			for i := q.shFrom; remaining > 0; i++ {
				n := min(remaining, c.blockBytes)
				c.sharedAccesses++
				t = c.f.WriteShared(r.hostID, c.expIDs[q.blocks[i].exp], n, t)
				remaining -= n
			}
			q.firstTok, q.lastTok, q.stepDone = t, t, t
		} else if q.tailWrite {
			c.sharedAccesses++
			done := c.f.WriteShared(r.hostID,
				c.expIDs[q.blocks[q.resident-1].exp], cfg.BytesPerToken, q.tailStart)
			q.stepDone = done
			q.lastTok = done
		}
	}
	// Depth-1 prefetch: the attention reads for each continuing
	// request's NEXT decode step issue now, overlapping fabric latency
	// with the compute still ahead of the step.
	for _, q := range b.acted {
		if q.generated >= q.decode {
			continue
		}
		q.sharedReady = 0
		for _, blk := range q.blocks[:q.resident] {
			if !blk.shared {
				continue
			}
			c.sharedAccesses++
			if done := c.f.ReadShared(r.hostID, c.expIDs[blk.exp], c.blockBytes, now); done > q.sharedReady {
				q.sharedReady = done
			}
		}
	}
	mir := &c.mirrors[r.idx]
	for _, q := range b.retired {
		for _, blk := range q.blocks {
			if blk.shared {
				c.sharedFree = append(c.sharedFree, sharedSlot{exp: blk.exp})
			} else {
				mir.localFree = append(mir.localFree, blk.addr)
			}
		}
		c.finishedN++
	}
	mir.batchN -= len(b.retired)
	c.admitAll(now)
	c.starveCheck()
	c.hub.Send(c.repShard[r.idx], now, r.replyFn, b)
}

// onReply (replica event) closes the step: fold metrics in batch order,
// recycle the bundle, and schedule the next step at the step's end.
func (r *replica) onReply(arg any) {
	b := arg.(*bundle)
	r.awaiting = false
	c := r.c
	stepEnd := b.e
	for _, q := range b.acted {
		if q.stepDone > stepEnd {
			stepEnd = q.stepDone
		}
	}
	for _, q := range b.acted {
		if q.actPrefill {
			ttft := float64(q.firstTok-q.arrival) / float64(sim.Microsecond)
			r.m.TTFT.Add(ttft)
			c.outcomes[q.id].ttft = ttft
		}
	}
	for _, q := range b.retired {
		r.m.Requests++
		if q.generated > 1 {
			perTok := float64(q.lastTok-q.firstTok) / float64(q.generated-1) /
				float64(sim.Microsecond)
			r.m.TPOT.Add(perTok)
			c.outcomes[q.id].tpot = perTok
			c.outcomes[q.id].hasTPOT = true
		}
		c.outcomes[q.id].lastTok = q.lastTok
	}
	b.reset()
	r.bundles = append(r.bundles, b)
	if len(r.batch) > 0 || len(r.pending) > 0 {
		at := stepEnd
		if now := r.sh.Engine().Now(); now > at {
			at = now
		}
		r.scheduled = true
		r.sh.Engine().AtCall(at, r.stepFn, nil)
	}
}

// accessLocal moves n KV bytes of local block b through the replica
// host's memory system with non-temporal line ops.
func (r *replica) accessLocal(b cblock, n int, now sim.Time, write bool) sim.Time {
	r.localAccesses++
	r.m.LocalBytes += uint64(n)
	op := cxl.NtLd
	if write {
		op = cxl.NtSt
	}
	done := now
	for off := 0; off < n; off += phys.LineSize {
		if d := r.core.AccessTiming(op, b.addr+phys.Addr(off), now); d > done {
			done = d
		}
	}
	return done
}

// finalize folds per-shard results into the global metrics in a
// shard-independent order: per-request outcomes by request id, replica
// blocks by replica index, fabric stats in declaration order.
func (c *Cluster) finalize(reqs []*creq) {
	c.m.Accesses = c.sharedAccesses
	for _, r := range c.reps {
		c.m.GenTokens += r.m.GenTokens
		c.m.Accesses += r.localAccesses
	}
	for i := range c.outcomes {
		o := &c.outcomes[i]
		c.m.TTFT.Add(o.ttft)
		if o.hasTPOT {
			c.m.TPOT.Add(o.tpot)
		}
		if o.lastTok > c.m.Elapsed {
			c.m.Elapsed = o.lastTok
		}
	}
	start := reqs[0].arrival
	if c.m.Elapsed > start {
		c.m.Goodput = float64(c.m.GenTokens) /
			(float64(c.m.Elapsed-start) / float64(sim.Second))
	}
	for _, r := range c.reps {
		c.m.Replicas = append(c.m.Replicas, r.m)
	}
	c.m.Links = c.f.LinkStats()
	c.m.Ports = c.f.PortStats()
}

// blocksFor returns how many KV blocks tokens occupy.
func (c *Cluster) blocksFor(tokens int) int {
	return (tokens + c.cfg.BlockTokens - 1) / c.cfg.BlockTokens
}
