package fabric

import (
	"fmt"

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
// # Schedule
//
// One barrier-synchronous loop, on the calling goroutine:
//
//  1. every shard drains its inboxes into its engine and records
//     N_r, its next pending event time;
//  2. shard r gets the bound
//     W_r = min( min_{j≠r}( N_j + dist(j,r) ),  N_r + rt_r )
//     and the loop ends when no shard has N_r < W_r;
//  3. every busy shard (N_r < W_r) runs its events strictly before W_r;
//  4. barrier, then repeat.
//
// dist is the all-pairs shortest-path metric over link one-way
// latencies, and rt_r = min_k(dist(r,k)+dist(k,r)) is shard r's
// cheapest round trip.
//
// # Safety
//
// Mail moves only at the barrier, so a causal chain crosses at most one
// shard boundary per window, and at every barrier each chain's earliest
// unprocessed stage is an event in some engine j at or after N_j. A
// chain from j reaches r no earlier than N_j + dist(j,r); one that
// leaves r and comes back — an echo of r's own sends — no earlier than
// N_r + rt_r. Every future delivery into r is therefore at or after
// W_r, which r's window never reaches. The shard with the smallest N is
// always busy (dist and rt are positive), so the loop ends exactly when
// every engine is empty.
//
// # Determinism
//
// The windows are a function of the engines' contents alone, and shards
// share nothing inside a window, so the order in which a window's busy
// shards run cannot matter. Dispatch order within an engine is fixed by
// the event key (when, srcShard<<SourceShift|srcSeq) — locals tagged by
// their own engine (sim.SetSourceID), messages tagged by the sender at
// send time (Shard.Send) — so any safe schedule dispatches each
// engine's events in one fixed sequence, and the rendered output is a
// function of the simulation alone.

// shardMsg is one cross-shard event in flight.
type shardMsg struct {
	when sim.Time
	key  uint64
	fn   func(any)
	arg  any
}

// Shard is one partition of the fabric simulation: a private engine, the
// nodes that live on it, and inboxes from every peer shard.
type Shard struct {
	set   *ShardSet
	id    int
	eng   *sim.Engine
	nodes []string
	// inbox[src] is the mail shard src sent during the current window.
	// Only src appends to it inside a window and only this shard drains
	// it between windows; the barrier orders the two.
	inbox [][]shardMsg
	// out is the per-sender message sequence, the srcSeq half of the
	// deterministic merge key. It advances only inside this shard's own
	// event processing, so it is as deterministic as the event order.
	out uint64
	// next is N, this window's activation.
	next sim.Time
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
	s.out++
	m := shardMsg{when: satAdd(when, s.set.dist[s.id][dst]), key: uint64(s.id)<<sim.SourceShift | s.out, fn: fn, arg: arg}
	in := s.set.shards[dst].inbox
	in[s.id] = append(in[s.id], m)
}

// Dist returns the minimum cross-shard latency from src to dst — the
// message delivery distance Send applies.
func (ss *ShardSet) Dist(src, dst int) sim.Time { return ss.dist[src][dst] }

// drain moves the last window's mail into the engine, keyed so the heap
// merges it deterministically, and keeps the inboxes' backing arrays so
// steady-state messaging does not allocate.
func (s *Shard) drain() {
	for src, msgs := range s.inbox {
		for i, m := range msgs {
			s.eng.AtCallTagged(m.when, m.key, m.fn, m.arg)
			msgs[i] = shardMsg{} // drop fn/arg references
		}
		s.inbox[src] = msgs[:0]
	}
}

// ShardSet is the sharded execution of one fabric simulation.
type ShardSet struct {
	shards []*Shard
	byNode map[string]int
	dist   [][]sim.Time
	rt     []sim.Time // cheapest self round trip per shard
	ran    bool
}

// NumShards reports the shard count of the partition.
func (ss *ShardSet) NumShards() int { return len(ss.shards) }

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
func newShardSet(f *Fabric) (*ShardSet, error) {
	ss := &ShardSet{byNode: map[string]int{}}

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
	addShard := func(eng *sim.Engine, nodes []string) {
		for _, id := range nodes {
			ss.byNode[id] = len(ss.shards)
		}
		ss.shards = append(ss.shards, &Shard{set: ss, id: len(ss.shards), eng: eng, nodes: nodes})
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
		s.inbox = make([][]shardMsg, len(ss.shards))
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

// Run executes every shard to quiescence in barrier-synchronous windows
// (see Schedule), all on the calling goroutine.
func (ss *ShardSet) Run() {
	if ss.ran {
		panic("fabric: ShardSet.Run called twice")
	}
	ss.ran = true
	for {
		for _, s := range ss.shards {
			s.drain()
			s.next = s.eng.NextEventAt()
		}
		// Running a shard touches only its engine and its peers'
		// inboxes, never a next, so each bound can be taken just before
		// its shard runs.
		idle := true
		for _, s := range ss.shards {
			if w := ss.window(s.id); s.next < w {
				s.eng.RunWindow(w)
				idle = false
			}
		}
		if idle {
			return
		}
	}
}

// window is shard r's bound W_r over the current activations.
func (ss *ShardSet) window(r int) sim.Time {
	w := satAdd(ss.shards[r].next, ss.rt[r])
	for j, s := range ss.shards {
		if j != r {
			w = min(w, satAdd(s.next, ss.dist[j][r]))
		}
	}
	return w
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
