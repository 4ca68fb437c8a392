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
// Validate forbids host–host links and every device co-resides with its
// host or the hub, so every cross-shard link joins a host to the hub
// (shard 0) and the shard metric is a star: Dist(j,r) = up[j] + up[r],
// where up[r] is host r's cheapest link to the hub and up[hub] = 0.
// One barrier-synchronous loop, on the calling goroutine:
//
//  1. every shard records N_r, its next pending event time;
//  2. with M = min over hosts j of N_j + up[j], a host gets the bound
//     W_r = up[r] + min(N_hub, M) and the hub
//     W_hub = min(M, N_hub + 2·min_j up[j]); the loop ends when no
//     shard has N_r < W_r;
//  3. every busy shard (N_r < W_r) runs its events strictly before W_r;
//  4. barrier, then repeat.
//
// These are the general conservative bound
// W_r = min( min_{j≠r}(N_j + Dist(j,r)),  N_r + rt_r ), with rt_r the
// cheapest round trip (2·up[r] for a host, the j = r term of M), in
// closed form, so a window costs O(S).
//
// # Safety
//
// Send puts mail straight into the receiver's engine. A window runs
// shard s's events at or after N_s, so their mail to r arrives at or
// after N_s + Dist(s,r) ≥ W_r, past r's window whether r runs before or
// after s. A causal chain thus crosses at most one shard boundary per
// window: from j it reaches r no earlier than N_j + Dist(j,r), and an
// echo of r's own sends no earlier than N_r + rt_r, so every future
// delivery into r is at or after W_r. Send panics on mail that would
// land inside its receiver's current bound. The shard with the smallest
// N is always busy (every up is positive), so the loop ends exactly when
// every engine is empty.
//
// # Determinism
//
// The windows are a function of the engines' contents alone, and mail
// sent inside a window is never dispatched in it, so the order in which
// a window's busy shards run cannot matter. Dispatch order within an
// engine is fixed by the event key (when, srcShard<<SourceShift|srcSeq)
// — locals tagged by their own engine (sim.SetSourceID), messages tagged
// by the sender at send time (Shard.Send) — so any safe schedule
// dispatches each engine's events in one fixed sequence, and the
// rendered output is a function of the simulation alone.

// Shard is one partition of the fabric simulation: a private engine and
// the nodes that live on it.
type Shard struct {
	set   *ShardSet
	id    int
	eng   *sim.Engine
	nodes []string
	// out is the per-sender message sequence, the srcSeq half of the
	// deterministic merge key. It advances only inside this shard's own
	// event processing, so it is as deterministic as the event order.
	out uint64
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
	ss := s.set
	at := satAdd(when, ss.Dist(s.id, dst))
	if w := ss.bound(dst); at < w {
		panic(fmt.Sprintf("fabric: shard %d mail arrives on shard %d at %v, inside its window bound %v", s.id, dst, at, w))
	}
	s.out++
	ss.shards[dst].eng.AtCallTagged(at, uint64(s.id)<<sim.SourceShift|s.out, fn, arg)
}

// Dist returns the minimum cross-shard latency from src to dst — the
// message delivery distance Send applies.
func (ss *ShardSet) Dist(src, dst int) sim.Time {
	if src == dst {
		return 0
	}
	return satAdd(ss.up[src], ss.up[dst])
}

// ShardSet is the sharded execution of one fabric simulation.
type ShardSet struct {
	shards []*Shard
	byNode map[string]int
	// up[r] is host shard r's cheapest one-way link to the hub, and
	// up[0] = 0; hubRT = 2·min_r up[r] is the hub's cheapest round trip.
	up    []sim.Time
	hubRT sim.Time
	// next[r] is N_r, and floor = min(N_hub, M) and hubW = W_hub the
	// bounds, of the current window (see Schedule).
	next        []sim.Time
	floor, hubW sim.Time
	windows     int
	ran         bool
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
	}

	n := len(ss.shards)
	ss.up = make([]sim.Time, n)
	ss.next = make([]sim.Time, n)
	for r := 1; r < n; r++ {
		ss.up[r] = sim.Forever
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
		if a != 0 && b != 0 {
			// Equally unreachable after Validate; the closed-form bounds
			// hold only on a star around the hub.
			return nil, fmt.Errorf("fabric: link %s joins two host shards; cross-shard links must touch the hub", fl.name())
		}
		ss.up[a+b] = min(ss.up[a+b], fl.spec.OneWay)
	}
	ss.hubRT = sim.Forever
	for _, u := range ss.up[1:] {
		ss.hubRT = min(ss.hubRT, satAdd(u, u))
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
		ss.windows++
		for r, s := range ss.shards {
			ss.next[r] = s.eng.NextEventAt()
		}
		ss.bounds()
		idle := true
		for r, s := range ss.shards {
			if w := ss.bound(r); ss.next[r] < w {
				s.eng.RunWindow(w)
				idle = false
			}
		}
		if idle {
			return
		}
	}
}

// Windows reports how many windows Run has stepped through, the final
// idle one included.
func (ss *ShardSet) Windows() int { return ss.windows }

// bounds sets floor and hubW from the activations in next.
func (ss *ShardSet) bounds() {
	m := sim.Forever
	for j := 1; j < len(ss.next); j++ {
		m = min(m, satAdd(ss.next[j], ss.up[j]))
	}
	ss.floor = min(ss.next[0], m)
	ss.hubW = min(m, satAdd(ss.next[0], ss.hubRT))
}

// bound is shard r's window bound W_r for the current window.
func (ss *ShardSet) bound(r int) sim.Time {
	if r == 0 {
		return ss.hubW
	}
	return satAdd(ss.up[r], ss.floor)
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
