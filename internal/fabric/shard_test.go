package fabric

import (
	"flag"
	"fmt"
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
// star fabric and renders every delivery in merge order. Each shard's
// handler logs (shard, time, payload state) and forwards the ping to a
// payload-chosen peer at the minimum admissible distance plus a small
// payload-derived jitter — echo chains at the lookahead bound, the
// worst case for the conservative window protocol.
func runPingSchedule(seed int64, pings, hops int) string {
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
	return b.String()
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
// window loop or the merge keys that reorders one shows up here.
func TestShardedMessageByteIdentity(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{3, 17, 88} {
		got := runPingSchedule(seed, 24, 12)
		if got == "" {
			t.Fatalf("seed %d produced no deliveries", seed)
		}
		fmt.Fprintf(&b, "== seed %d\n%s", seed, got)
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
// hub — or the late message panics ("scheduling tagged event … before
// now"). Relay chains at the lookahead bound over thousands of seeds
// exercise every term of the bound (dropping the round-trip term fails
// on the first seed); the loop also stops after a wall budget so slow
// builds (-race) stay bounded.
func TestShardedWindowNeverOutrunsMail(t *testing.T) {
	deadline := time.Now().Add(10 * time.Second)
	for seed := int64(1); seed <= 5000 && time.Now().Before(deadline); seed++ {
		if err := relayStorm(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
