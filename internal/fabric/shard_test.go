package fabric

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/ping.golden instead of comparing")

// TestShardPartitionGenericTopology pins the structural partitioner on
// a topology that exercises every placement rule at once: switches and
// switch-attached expanders form the hub; each host is its own shard;
// directly attached devices (Type2 or Type3) co-reside with their host.
func TestShardPartitionGenericTopology(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{
			{ID: "h0", Kind: Host},
			{ID: "h1", Kind: Host},
			{ID: "sw0", Kind: Switch},
			{ID: "x0", Kind: Type3},
			{ID: "d0", Kind: Type2},
			{ID: "x1", Kind: Type3},
		},
		Links: []LinkSpec{
			{A: "h0", B: "sw0"},
			{A: "h1", B: "sw0"},
			{A: "sw0", B: "x0"},
			{A: "h0", B: "d0"},
			{A: "h1", B: "x1"},
		},
	}
	f := MustBuild(topo, nil, Shards(1))
	ss := f.ShardSet()
	if got := ss.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3 (hub + 2 hosts)", got)
	}
	wantShard := map[string]int{
		"sw0": 0, "x0": 0, // hub
		"h0": 1, "d0": 1, // direct Type2 rides its host
		"h1": 2, "x1": 2, // direct Type3 rides its host
	}
	for id, want := range wantShard {
		if got := ss.NodeShard(id); got != want {
			t.Errorf("NodeShard(%s) = %d, want %d", id, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if d := ss.Dist(i, i); d != 0 {
			t.Errorf("Dist(%d,%d) = %v, want 0 (co-resident)", i, i, d)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			if d := ss.Dist(i, j); d <= 0 {
				t.Errorf("Dist(%d,%d) = %v, want positive lookahead", i, j, d)
			}
			if ss.Dist(i, j) != ss.Dist(j, i) {
				t.Errorf("Dist(%d,%d) != Dist(%d,%d)", i, j, j, i)
			}
		}
	}
	// Host-to-host traffic routes through the hub: the triangle
	// inequality is tight on a star.
	if got, want := ss.Dist(1, 2), ss.Dist(1, 0)+ss.Dist(0, 2); got != want {
		t.Errorf("Dist(1,2) = %v, want %v (via hub)", got, want)
	}
}

// runPingSchedule drives a randomized cross-shard message storm over a
// star fabric and renders every delivery in merge order, returning the
// render and the run's window count. Each shard's handler logs (shard,
// time, payload state) and forwards the ping to a payload-chosen peer
// at the minimum admissible distance plus a small payload-derived
// jitter — echo chains at the lookahead bound, the worst case for the
// conservative window protocol.
func runPingSchedule(seed int64, pings, hops int) (string, int) {
	f := MustBuild(star(3, 2), nil, Shards(1))
	ss := f.ShardSet()
	n := ss.NumShards()

	type ping struct {
		state uint64
		hops  int
	}
	logs := make([]*strings.Builder, n)
	handlers := make([]func(any), n)
	for i := 0; i < n; i++ {
		i := i
		logs[i] = &strings.Builder{}
		s := ss.Shard(i)
		handlers[i] = func(a any) {
			p := a.(*ping)
			now := s.Engine().Now()
			fmt.Fprintf(logs[i], "%d %v %x %d\n", i, now, p.state, p.hops)
			if p.hops <= 0 {
				return
			}
			p.hops--
			p.state = p.state*6364136223846793005 + 1442695040888963407
			dst := int(p.state>>33) % n
			jitter := sim.Time(p.state>>17) % 50 * sim.Nanosecond
			s.Send(dst, now+jitter, handlers[dst], p)
		}
	}
	r := rng.New(seed)
	for k := 0; k < pings; k++ {
		src := r.Intn(n)
		at := sim.Time(r.Intn(500)) * sim.Nanosecond
		ss.Shard(src).Engine().AtCall(at, handlers[src], &ping{
			state: r.Uint64(),
			hops:  hops,
		})
	}
	ss.Run()
	var b strings.Builder
	for _, l := range logs {
		b.WriteString(l.String())
	}
	return b.String(), ss.Windows()
}

// pingGolden holds runPingSchedule's render for each pinned seed, under
// a "== seed N" header line. Regenerate with:
//
//	go test ./internal/fabric -run ShardedMessageByteIdentity -update
const pingGolden = "testdata/ping.golden"

// TestShardedMessageByteIdentity is the fabric-level determinism
// property: a cross-shard message schedule renders exactly the golden
// bytes for several seeds. Same-instant deliveries from different source
// shards land in (when, srcShard, srcSeq) order, so any change to the
// window loop or the merge keys that reorders one shows up here. The
// window counts are pinned too, so the schedule itself cannot drift
// while the bytes hold.
func TestShardedMessageByteIdentity(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		seed    int64
		windows int
	}{{3, 23}, {17, 22}, {88, 25}} {
		got, windows := runPingSchedule(tc.seed, 24, 12)
		if got == "" {
			t.Fatalf("seed %d produced no deliveries", tc.seed)
		}
		if windows != tc.windows {
			t.Errorf("seed %d ran %d windows, want %d", tc.seed, windows, tc.windows)
		}
		fmt.Fprintf(&b, "== seed %d\n%s", tc.seed, got)
	}
	if *update {
		if err := os.WriteFile(pingGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pingGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("ping schedule render differs from %s", pingGolden)
	}
}

// TestShardedTransferByteIdentity re-runs the random
// ReadShared/WriteShared schedule property on a partitioned build: the
// transfers all execute on the hub shard, so the render must be
// byte-identical to the unpartitioned fabric's.
func TestShardedTransferByteIdentity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		want, _ := randomSchedule(seed, 200)
		if got, _ := randomSchedule(seed, 200, Shards(1)); got != want {
			t.Fatalf("seed %d: partitioned transfer render differs from unpartitioned build", seed)
		}
	}
}

// relayStorm runs pings relayed through the hub over a star of seven
// hosts: hosts forward only to the hub, the hub to a
// payload-chosen host, each hop at the lookahead bound plus a small
// jitter. It returns the shard panic, if any, as an error.
func relayStorm(seed int64) (err error) {
	f := MustBuild(star(7, 1), nil, Shards(1))
	ss := f.ShardSet()
	n := ss.NumShards()
	type ping struct {
		state uint64
		hops  int
	}
	handlers := make([]func(any), n)
	for i := 0; i < n; i++ {
		s := ss.Shard(i)
		handlers[i] = func(a any) {
			p := a.(*ping)
			if p.hops == 0 {
				return
			}
			p.hops--
			p.state = p.state*6364136223846793005 + 1442695040888963407
			dst := 0
			if s.ID() == 0 {
				dst = 1 + int(p.state>>40)%(n-1)
			}
			jitter := sim.Time(p.state>>17) % 50 * sim.Nanosecond
			s.Send(dst, s.Engine().Now()+jitter, handlers[dst], p)
		}
	}
	r := rng.New(seed)
	for k := 0; k < 8; k++ {
		src := r.Intn(n)
		at := sim.Time(r.Intn(5000)) * sim.Nanosecond
		ss.Shard(src).Engine().AtCall(at, handlers[src], &ping{state: r.Uint64(), hops: 40})
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%v", v)
		}
	}()
	ss.Run()
	return nil
}

// TestShardedWindowNeverOutrunsMail pins the window bound's safety: no
// shard's window may pass the delivery time of mail still to reach it —
// from a peer, or an echo of its own sends relayed back through the
// hub — or Send panics (mail inside the receiver's bound) or the engine
// does ("scheduling tagged event … before now"). Relay chains at the
// lookahead bound over thousands of seeds exercise every term of the
// bound: dropping the hub's round-trip term fails on seed 2, and
// halving a host's up[r] in Send's delivery distance while the bounds
// keep it fails Send's check on seed 1 (the engine alone catches it
// only on seed 5). The loop stops after a wall budget so slow builds
// (-race) stay bounded.
func TestShardedWindowNeverOutrunsMail(t *testing.T) {
	deadline := time.Now().Add(10 * time.Second)
	for seed := int64(1); seed <= 5000 && time.Now().Before(deadline); seed++ {
		if err := relayStorm(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// randomTopology draws a valid fabric: a random tree of switches (a
// chain whenever each attaches to its predecessor), hosts linked to one
// or two switches, expanders on switches, at most one direct Type-2 or
// Type-3 device per host, and random link latencies (zero selects the
// calibrated default). Without switches there is one host.
func randomTopology(r *rand.Rand) Topology {
	var topo Topology
	node := func(kind NodeKind, prefix string, i int) string {
		id := fmt.Sprintf("%s%d", prefix, i)
		topo.Nodes = append(topo.Nodes, NodeSpec{ID: id, Kind: kind})
		return id
	}
	link := func(a, b string) {
		var ow sim.Time
		if r.Intn(4) > 0 {
			ow = sim.Time(1+r.Intn(400)) * sim.Nanosecond
		}
		topo.Links = append(topo.Links, LinkSpec{A: a, B: b, OneWay: ow})
	}
	nsw := r.Intn(4)
	nh := 1
	if nsw > 0 {
		nh += r.Intn(6)
	}
	var sws, hosts []string
	for i := 0; i < nsw; i++ {
		sws = append(sws, node(Switch, "sw", i))
		if i > 0 {
			link(sws[r.Intn(i)], sws[i])
		}
	}
	for i := 0; i < nh; i++ {
		hosts = append(hosts, node(Host, "h", i))
		for _, k := range r.Perm(nsw)[:min(nsw, 1+r.Intn(2))] {
			link(hosts[i], sws[k])
		}
	}
	for i, n := 0, r.Intn(3); i < n && nsw > 0; i++ {
		link(sws[r.Intn(nsw)], node(Type3, "x", i))
	}
	for i, h := range hosts {
		switch r.Intn(3) {
		case 0:
			link(h, node(Type3, "hx", i))
		case 1:
			link(h, node(Type2, "d", i))
		}
	}
	return topo
}

// referenceDist is the general shard metric the closed form replaced:
// all-pairs shortest paths over cross-shard link one-way latencies
// (Floyd–Warshall).
func referenceDist(f *Fabric) [][]sim.Time {
	ss := f.ShardSet()
	n := ss.NumShards()
	dist := make([][]sim.Time, n)
	for i := range dist {
		dist[i] = make([]sim.Time, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = sim.Forever
			}
		}
	}
	for _, fl := range f.links {
		a, b := ss.NodeShard(fl.a), ss.NodeShard(fl.b)
		if a != b && fl.spec.OneWay < dist[a][b] {
			dist[a][b], dist[b][a] = fl.spec.OneWay, fl.spec.OneWay
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dist[i][j] = min(dist[i][j], satAdd(dist[i][k], dist[k][j]))
			}
		}
	}
	return dist
}

// referenceBound is the general conservative bound
// W_r = min( min_{j≠r}(N_j + dist(j,r)), N_r + rt_r ), with rt_r shard
// r's cheapest round trip through any peer.
func referenceBound(dist [][]sim.Time, next []sim.Time, r int) sim.Time {
	rt := sim.Forever
	w := sim.Forever
	for j := range next {
		if j != r {
			rt = min(rt, satAdd(dist[r][j], dist[j][r]))
			w = min(w, satAdd(next[j], dist[j][r]))
		}
	}
	return min(w, satAdd(next[r], rt))
}

// TestShardBoundsMatchReference checks the closed-form star metric and
// window bounds against the general Floyd–Warshall ones on random valid
// topologies and random activations, Forever and near-overflow
// included, through the same bounds/bound code Run uses.
func TestShardBoundsMatchReference(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 400; trial++ {
		topo := randomTopology(r)
		f, err := Build(topo, nil, Shards(1))
		if err != nil {
			t.Fatalf("trial %d: %v\n%+v", trial, err, topo)
		}
		ss := f.ShardSet()
		dist := referenceDist(f)
		n := ss.NumShards()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := ss.Dist(i, j); got != dist[i][j] {
					t.Fatalf("trial %d: Dist(%d,%d) = %v, reference %v\n%+v", trial, i, j, got, dist[i][j], topo)
				}
			}
		}
		for k := 0; k < 16; k++ {
			for j := range ss.next {
				switch r.Intn(8) {
				case 0, 1:
					ss.next[j] = sim.Forever
				case 2:
					ss.next[j] = sim.Forever - sim.Time(r.Intn(1000))*sim.Nanosecond
				default:
					ss.next[j] = sim.Time(r.Intn(1_000_000)) * sim.Nanosecond
				}
			}
			ss.bounds()
			for q := 0; q < n; q++ {
				if got, want := ss.bound(q), referenceBound(dist, ss.next, q); got != want {
					t.Fatalf("trial %d: shard %d bound %v, reference %v (next %v)\n%+v",
						trial, q, got, want, ss.next, topo)
				}
			}
		}
	}
}
