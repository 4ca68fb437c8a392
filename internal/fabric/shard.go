package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Conservative parallel discrete-event simulation (PDES) over the
// fabric graph. The topology is partitioned structurally: every host
// node is its own shard (together with any directly attached device,
// which rides the host's home agent and shares its engine), and the
// switch fabric plus all switch-attached expanders form the hub shard.
// Each shard owns a private sim.Engine; shards interact only through
// typed messages that cross a fabric link, and every fabric link has a
// nonzero one-way propagation latency (LinkSpec normalization
// substitutes the calibrated CXL latency for zero), so the lookahead
// that makes conservative execution safe is structural, not heuristic.
// A zero-latency link would force its endpoints into one shard; since
// normalization makes that unexpressible, Build rejects the case
// outright rather than silently merging.
//
// # Safety
//
// Shard r may execute events strictly before
//
//	W_r = min( min_{j≠r}( eff_j + dist(j,r) ),  mp_r,  N_r + rt_r )
//
// where eff_j = min(N_j, mp_j): N_j is shard j's published activation
// (next pending event time) and mp_j the minimum delivery time over
// unprocessed messages sitting in j's mailboxes — a peer's pending
// input bounds what it can still emit exactly like its pending events
// do. dist is the all-pairs shortest-path metric over link one-way
// latencies; mp_r (distance zero) keeps r from outrunning its own
// inbound mail; and rt_r = min_k(dist(r,k)+dist(k,r)) bounds echoes of
// the sends r itself is about to make this window, which no mailbox or
// activation can reflect yet.
//
// Every future message into r is the tail of a causal chain, and at any
// wall-clock instant the chain's earliest unprocessed stage is visible
// somewhere: still unemitted inside a sender mid-window (whose
// published N is its pre-window value — Send's emission times can't
// precede it), queued in a mailbox (mp), or drained into an engine
// (drain lowers the published N before clearing mp, so the protection
// never gaps). Each hop to r adds at least dist of slack. The reads,
// though, are many: a chain that completes several hops while windowFor
// is between two of them can slip past every read (a peer drains,
// forwards and re-publishes after its mailbox and activation were read;
// the next hop lands in a mailbox read earlier). So the only operations
// that raise a bound — a drain clearing mp, a publish raising N — first
// bump ShardSet.raises, and a window computation is kept only if the
// counter did not move across its reads (else it is retried). A kept
// read set can overlap at most one raise per shard, one already counted
// when the reads began: a drain whose lowered N was then already
// published, or a publish whose window's sends were then already queued
// — either way the chain stays visible — and any further raise would
// have moved the counter. Sends and lowerings never bump (they only add
// protection). The strict `<` bound (sim.RunWindow) covers exact
// equality.
//
// # Determinism
//
// Window placement depends on scheduling, so the same events can be
// delivered into a shard's engine at different wall-clock moments on
// different runs. Dispatch order still cannot vary: every event carries
// a (when, srcShard<<SourceShift|srcSeq) key — locals tagged by their
// own engine (sim.SetSourceID), messages tagged by the sender at send
// time (Shard.Send) — and the engine heap dispatches in key order. Any
// safe window schedule therefore dispatches each engine's events in one
// fixed sequence, making a sharded run byte-identical to the inline
// single-goroutine run, whatever the worker count.

// shardMsg is one cross-shard event in flight.
type shardMsg struct {
	when sim.Time
	key  uint64
	fn   func(any)
	arg  any
}

// mailbox is a single-producer single-consumer queue from one source
// shard into one destination shard. hasMail lets the receiver skip the
// lock on the (overwhelmingly common) empty poll; spare recycles the
// drained backing array so steady-state messaging does not allocate.
type mailbox struct {
	hasMail atomic.Bool
	// minPending is the earliest delivery time among queued messages
	// (Forever when empty): the channel clock peers fold into their
	// window bound so in-flight mail is never outrun. Updated under mu,
	// read lock-free by windowFor.
	minPending atomic.Int64
	mu         sync.Mutex
	q          []shardMsg
	spare      []shardMsg
}

// Shard is one partition of the fabric simulation: a private engine, the
// nodes that live on it, and inboxes from every peer shard.
type Shard struct {
	set   *ShardSet
	id    int
	eng   *sim.Engine
	nodes []string
	inbox []mailbox // indexed by source shard; inbox[id] unused
	// out is the per-sender message sequence, the srcSeq half of the
	// deterministic merge key. It advances only inside this shard's own
	// event processing, so it is as deterministic as the event order.
	out uint64
	// nextAt is the shard's published activation time N (int64 of
	// sim.Time): the earliest instant it could dispatch an event absent
	// new messages. Peers fold it into their window bound.
	nextAt atomic.Int64
	// idle mirrors "engine drained" for termination detection. drain
	// clears it before acknowledging a delivery (inflight decrement), so
	// a scanner that reads inflight==0 cannot also read a stale idle=true
	// for a shard that just received work.
	idle atomic.Bool
	// preAct is windowFor's per-shard scratch for the first activation
	// read pass (only this shard's worker touches it).
	preAct []sim.Time
}

// ID returns the shard's index within its ShardSet.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private event engine.
func (s *Shard) Engine() *sim.Engine { return s.eng }

// Nodes lists the topology nodes resident on this shard, hub nodes in
// declaration order.
func (s *Shard) Nodes() []string { return s.nodes }

// Send delivers fn(arg) into shard dst at when plus the inter-shard
// link distance, carrying this shard's (id, seq) merge key so the
// receiver dispatches it in a schedule-independent position. It must be
// called from within this shard's own event processing (or before the
// run starts), and `when` — the modeled emission time — must not
// precede the shard's clock. Sending to the own shard is a plain local
// schedule: co-resident interaction has no link to cross.
func (s *Shard) Send(dst int, when sim.Time, fn func(any), arg any) {
	if now := s.eng.Now(); when < now {
		panic(fmt.Sprintf("fabric: shard %d sends at %v before now %v", s.id, when, now))
	}
	if dst == s.id {
		s.eng.AtCall(when, fn, arg)
		return
	}
	set := s.set
	deliver := satAdd(when, set.dist[s.id][dst])
	s.out++
	m := shardMsg{when: deliver, key: uint64(s.id)<<sim.SourceShift | s.out, fn: fn, arg: arg}
	set.inflight.Add(1)
	b := &set.shards[dst].inbox[s.id]
	b.mu.Lock()
	b.q = append(b.q, m)
	if int64(deliver) < b.minPending.Load() {
		b.minPending.Store(int64(deliver))
	}
	b.mu.Unlock()
	b.hasMail.Store(true)
}

// Dist returns the minimum cross-shard latency from src to dst — the
// message delivery distance Send applies.
func (ss *ShardSet) Dist(src, dst int) sim.Time { return ss.dist[src][dst] }

// drain moves every queued inbound message into the engine, keyed so the
// heap merges it deterministically. Reports whether anything arrived.
func (s *Shard) drain() bool {
	any := false
	for i := range s.inbox {
		b := &s.inbox[i]
		// Load before Store: the empty poll is the common case by far and
		// a read keeps the cache line shared instead of bouncing it.
		if !b.hasMail.Load() {
			continue
		}
		b.hasMail.Store(false)
		b.mu.Lock()
		msgs := b.q
		b.q = b.spare[:0]
		if len(msgs) == 0 {
			b.mu.Unlock()
			b.spare = msgs
			continue
		}
		lo := sim.Forever
		for _, m := range msgs {
			s.eng.AtCallTagged(m.when, m.key, m.fn, m.arg)
			if m.when < lo {
				lo = m.when
			}
		}
		// Hand the messages' window protection from the mailbox to the
		// published activation before clearing the channel clock: a peer
		// that misses minPending then reads nextAt after it, and one of
		// the two always carries the bound.
		if cur := s.nextAt.Load(); int64(lo) < cur {
			s.nextAt.Store(int64(lo))
		}
		s.set.raises.Add(1)
		b.minPending.Store(int64(sim.Forever))
		b.mu.Unlock()
		any = true
		// Order matters for termination detection: mark the shard busy
		// before the messages stop counting as in flight.
		s.idle.Store(false)
		s.set.inflight.Add(-int64(len(msgs)))
		for j := range msgs {
			msgs[j] = shardMsg{} // drop fn/arg references
		}
		b.spare = msgs[:0]
	}
	return any
}

// step runs one scheduling round: drain inbound messages, execute the
// window the peers' published activations allow, publish our own.
// Reports whether any work was done.
func (s *Shard) step() bool {
	progressed := s.drain()
	next := s.eng.NextEventAt()
	if next < sim.Forever {
		if w := s.set.stableWindow(s.id, next); next < w {
			s.eng.RunWindow(w)
			progressed = true
			next = s.eng.NextEventAt()
		}
	}
	if next == sim.Forever {
		s.idle.Store(true)
	}
	// Publish after any sends from the window above are enqueued: a peer
	// that reads the new activation must be able to see the messages it
	// promises (both stores are sequentially consistent atomics). A rise
	// is counted first (see Safety).
	if int64(next) > s.nextAt.Load() {
		s.set.raises.Add(1)
	}
	s.nextAt.Store(int64(next))
	return progressed
}

// ShardSet is the sharded execution of one fabric simulation.
type ShardSet struct {
	f       *Fabric
	workers int
	shards  []*Shard
	byNode  map[string]int
	dist    [][]sim.Time
	rt      []sim.Time // cheapest self round trip per shard
	// raises counts bound rises (drain's mp clear, a raising publish) so
	// concurrent window computations can detect them (see Safety).
	raises atomic.Uint64

	inflight atomic.Int64
	done     atomic.Bool
	failMu   sync.Mutex
	failVal  any
	failed   bool
}

// NumShards reports the shard count of the partition.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

// Workers reports the worker-goroutine budget given to Shards().
func (ss *ShardSet) Workers() int { return ss.workers }

// Shard returns shard i.
func (ss *ShardSet) Shard(i int) *Shard { return ss.shards[i] }

// NodeShard reports which shard a topology node resides on.
func (ss *ShardSet) NodeShard(id string) int {
	s, ok := ss.byNode[id]
	if !ok {
		panic(fmt.Sprintf("fabric: no node %q in shard partition", id))
	}
	return s
}

// newShardSet partitions the compiled fabric.
func newShardSet(f *Fabric, workers int) (*ShardSet, error) {
	ss := &ShardSet{f: f, workers: workers, byNode: map[string]int{}}

	// Hub shard first (switches and their expanders), if the topology has
	// one; then one shard per host in declaration order. Directly
	// attached devices co-reside with their host: they ride the host's
	// home agent, a zero-latency interaction by construction.
	hubNodes := []string{}
	for _, n := range f.topo.Nodes {
		if k := f.kinds[n.ID]; k == Switch {
			hubNodes = append(hubNodes, n.ID)
		}
	}
	for _, l := range f.topo.Links {
		ka, kb := f.kinds[l.A], f.kinds[l.B]
		if ka == Switch && kb == Type3 {
			hubNodes = append(hubNodes, l.B)
		}
		if kb == Switch && ka == Type3 {
			hubNodes = append(hubNodes, l.A)
		}
	}
	addShard := func(eng *sim.Engine, nodes []string) *Shard {
		s := &Shard{set: ss, id: len(ss.shards), eng: eng, nodes: nodes}
		for _, id := range nodes {
			ss.byNode[id] = s.id
		}
		ss.shards = append(ss.shards, s)
		return s
	}
	if len(hubNodes) > 0 {
		// The hub owns the fabric's original engine: links, ports and
		// expanders were compiled against it.
		addShard(f.eng, hubNodes)
	}
	for _, h := range f.hostIDs {
		nodes := []string{h}
		for _, l := range f.topo.Links {
			ka, kb := f.kinds[l.A], f.kinds[l.B]
			if l.A == h && (kb == Type2 || kb == Type3) {
				nodes = append(nodes, l.B)
			}
			if l.B == h && (ka == Type2 || ka == Type3) {
				nodes = append(nodes, l.A)
			}
		}
		if len(ss.shards) == 0 {
			addShard(f.eng, nodes) // no hub: the lone host shard drives f.eng
		} else {
			addShard(sim.NewEngine(), nodes)
		}
	}
	for i, s := range ss.shards {
		s.eng.SetSourceID(i)
		s.inbox = make([]mailbox, len(ss.shards))
		for j := range s.inbox {
			s.inbox[j].minPending.Store(int64(sim.Forever))
		}
		s.preAct = make([]sim.Time, len(ss.shards))
	}

	n := len(ss.shards)
	// Inter-shard distances: shortest path over fabric-link one-way
	// latencies (Floyd–Warshall; n is hosts+1). The metric closure is
	// what lets the window bound cover multi-hop causal chains with a
	// single term per origin shard.
	ss.dist = make([][]sim.Time, n)
	for i := range ss.dist {
		ss.dist[i] = make([]sim.Time, n)
		for j := range ss.dist[i] {
			if i != j {
				ss.dist[i][j] = sim.Forever
			}
		}
	}
	for _, fl := range f.links {
		a, b := ss.byNode[fl.a], ss.byNode[fl.b]
		if a == b {
			continue
		}
		if fl.spec.OneWay <= 0 {
			// Unreachable today — normalization defaults zero to the
			// calibrated CXL latency — but the invariant the whole scheme
			// rests on deserves an explicit guard: a zero-latency
			// cross-shard link would mean zero lookahead.
			return nil, fmt.Errorf("fabric: link %s crosses shards with zero latency; endpoints must co-reside", fl.name())
		}
		if ow := fl.spec.OneWay; ow < ss.dist[a][b] {
			ss.dist[a][b] = ow
			ss.dist[b][a] = ow
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := satAdd(ss.dist[i][k], ss.dist[k][j]); v < ss.dist[i][j] {
					ss.dist[i][j] = v
				}
			}
		}
	}
	ss.rt = make([]sim.Time, n)
	for i := 0; i < n; i++ {
		ss.rt[i] = sim.Forever
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			if v := satAdd(ss.dist[i][k], ss.dist[k][i]); v < ss.rt[i] {
				ss.rt[i] = v
			}
		}
	}
	return ss, nil
}

// stableWindow is windowFor for concurrent execution: it keeps a bound
// only if no raise overlapped its reads (see Safety). After a few
// overlapped attempts it returns selfNext — no window this step — and
// the shard retries on its next step.
func (ss *ShardSet) stableWindow(dst int, selfNext sim.Time) sim.Time {
	for try := 0; try < 4; try++ {
		before := ss.raises.Load()
		w := ss.windowFor(dst, selfNext)
		if ss.raises.Load() == before {
			return w
		}
	}
	return selfNext
}

// windowFor computes the conservative execution bound for shard dst
// whose own next pending event is at selfNext; runInline calls it with
// every peer idle, concurrent steps through stableWindow. The reads
// follow a message's protection as it moves activation→mailbox→
// activation (emitted, queued, drained): all activations, then each
// peer's mailboxes and activation again, then dst's own inbox last.
func (ss *ShardSet) windowFor(dst int, selfNext sim.Time) sim.Time {
	shards := ss.shards
	self := shards[dst]
	pre := self.preAct
	for j, s := range shards {
		pre[j] = sim.Time(s.nextAt.Load())
	}
	w := satAdd(selfNext, ss.rt[dst])
	for j, s := range shards {
		if j == dst {
			continue
		}
		eff := pre[j]
		for i := range s.inbox {
			if mp := sim.Time(s.inbox[i].minPending.Load()); mp < eff {
				eff = mp
			}
		}
		if a := sim.Time(s.nextAt.Load()); a < eff {
			eff = a
		}
		if v := satAdd(eff, ss.dist[j][dst]); v < w {
			w = v
		}
	}
	// Mail already bound for dst needs no distance: it delivers here.
	for i := range self.inbox {
		if mp := sim.Time(self.inbox[i].minPending.Load()); mp < w {
			w = mp
		}
	}
	return w
}

// Run executes every shard to quiescence with up to `workers` OS
// goroutines (clamped to the shard count; <=1 runs inline on the
// calling goroutine). Rendered output is byte-identical whatever the
// worker count — see the determinism note at the top of the file. A
// panic inside any shard's event processing is re-raised on the caller.
func (ss *ShardSet) Run(workers int) {
	if ss.done.Load() {
		panic("fabric: ShardSet.Run called twice")
	}
	if workers > len(ss.shards) {
		workers = len(ss.shards)
	}
	if workers <= 1 {
		ss.runInline()
		ss.done.Store(true)
		return
	}
	ss.runParallel(workers)
	ss.done.Store(true)
	if ss.failed {
		panic(ss.failVal)
	}
}

// runInline is the exact sequential schedule: always run the globally
// earliest pending timestamp. It needs no window arithmetic — it IS the
// single-engine order, just spread over per-shard heaps.
func (ss *ShardSet) runInline() {
	// Inline execution keeps every shard's published activation exact:
	// publish after each window, and drain (which lowers the receiver's
	// activation on delivery) after every batch of sends. windowFor then
	// sees the same picture a fully synchronized parallel run would.
	for _, s := range ss.shards {
		s.drain()
		s.nextAt.Store(int64(s.eng.NextEventAt()))
	}
	for {
		best := -1
		bt := sim.Forever
		for _, s := range ss.shards {
			if t := sim.Time(s.nextAt.Load()); t < bt {
				bt = t
				best = s.id
			}
		}
		if best < 0 {
			return
		}
		// Run the picked shard as far as its conservative window allows
		// (at minimum the one timestamp batch at bt): peers are idle, so
		// the window is exact, and batching amortizes the drain/scan loop
		// over every event the shard can safely absorb.
		w := ss.windowFor(best, bt)
		if w <= bt {
			w = bt + 1
		}
		s := ss.shards[best]
		s.eng.RunWindow(w)
		s.nextAt.Store(int64(s.eng.NextEventAt()))
		for _, p := range ss.shards {
			p.drain()
		}
	}
}

func (ss *ShardSet) runParallel(workers int) {
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		var mine []*Shard
		for i := k; i < len(ss.shards); i += workers {
			mine = append(mine, ss.shards[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					ss.fail(r)
				}
			}()
			for !ss.done.Load() {
				progressed := false
				for _, s := range mine {
					if s.step() {
						progressed = true
					}
				}
				if !progressed {
					if ss.checkDone() {
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

// fail records the first shard panic and stops every worker.
func (ss *ShardSet) fail(r any) {
	ss.failMu.Lock()
	if !ss.failed {
		ss.failed = true
		ss.failVal = r
	}
	ss.failMu.Unlock()
	ss.done.Store(true)
}

// checkDone detects quiescence: every shard idle and no message in
// flight. The double scan plus the ordering discipline in drain (busy
// mark before inflight decrement) makes a false positive impossible:
// any message unaccounted for at the first scan is either still in
// flight (inflight > 0) or already inside an engine whose shard was
// marked busy before the decrement became visible.
func (ss *ShardSet) checkDone() bool {
	scan := func() bool {
		if ss.inflight.Load() != 0 {
			return false
		}
		for _, s := range ss.shards {
			if !s.idle.Load() {
				return false
			}
		}
		return true
	}
	if scan() && scan() {
		ss.done.Store(true)
		return true
	}
	return false
}

// satAdd adds two times, saturating at Forever.
func satAdd(a, b sim.Time) sim.Time {
	if a == sim.Forever || b == sim.Forever {
		return sim.Forever
	}
	if s := a + b; s >= a {
		return s
	}
	return sim.Forever
}
