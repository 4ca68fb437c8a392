package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// workerMatrix is the worker-count sweep the byte-identity properties
// run: inline (the reference sequential schedule), two workers, and
// GOMAXPROCS when it is larger.
func workerMatrix() []int {
	ws := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		ws = append(ws, p)
	}
	return ws
}

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
func runPingSchedule(workers int, seed int64, pings, hops int) string {
	f := MustBuild(star(3, 2), nil, Shards(workers))
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
	ss.Run(workers)
	var b strings.Builder
	for _, l := range logs {
		b.WriteString(l.String())
	}
	return b.String()
}

// TestShardedMessageByteIdentity is the fabric-level tentpole property:
// a cross-shard message schedule renders byte-identically at every
// worker count, for several seeds. Same-instant deliveries from
// different source shards land in (when, srcShard, srcSeq) order
// regardless of which goroutine drains them first.
func TestShardedMessageByteIdentity(t *testing.T) {
	for _, seed := range []int64{3, 17, 88} {
		var want string
		for _, w := range workerMatrix() {
			got := runPingSchedule(w, seed, 24, 12)
			if w == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d workers=%d diverged from inline:\n--- inline ---\n%s--- workers=%d ---\n%s",
					seed, w, want, w, got)
			}
		}
		if want == "" {
			t.Fatalf("seed %d produced no deliveries", seed)
		}
	}
}

// TestShardedTransferByteIdentity re-runs the existing random
// ReadShared/WriteShared schedule property on a sharded build: the
// transfers all execute on the hub shard, so the render must be
// byte-identical to the unsharded fabric's whatever the worker count.
func TestShardedTransferByteIdentity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		want, _ := randomSchedule(seed, 200)
		for _, w := range workerMatrix() {
			f := MustBuild(star(3, 2), nil, Shards(w))
			r := rng.New(seed)
			hosts, exps := f.Hosts(), f.Expanders()
			var b strings.Builder
			now := sim.Time(0)
			for i := 0; i < 200; i++ {
				now += sim.Time(r.Intn(200)) * sim.Nanosecond
				h := hosts[r.Intn(len(hosts))]
				x := exps[r.Intn(len(exps))]
				n := (1 + r.Intn(64)) * 64
				if r.Intn(3) == 0 {
					done := f.WriteShared(h, x, n, now)
					fmt.Fprintf(&b, "w %s %s %d @%d -> %d\n", h, x, n, now, done)
				} else {
					done := f.ReadShared(h, x, n, now)
					fmt.Fprintf(&b, "r %s %s %d @%d -> %d\n", h, x, n, now, done)
				}
			}
			for _, s := range f.LinkStats() {
				fmt.Fprintf(&b, "link %s %d %d\n", s.Link, s.ABytes, s.BABytes)
			}
			for _, s := range f.PortStats() {
				fmt.Fprintf(&b, "port %s %s claims=%d peak=%d waited=%d\n",
					s.Switch, s.Link, s.Claims, s.PeakQueue, int64(s.Waited))
			}
			if b.String() != want {
				t.Fatalf("seed %d Shards(%d): transfer render differs from unsharded build", seed, w)
			}
		}
	}
}

// relayStorm runs pings relayed through the hub over a star of seven
// hosts on four workers: hosts forward only to the hub, the hub to a
// payload-chosen host, each hop at the lookahead bound plus a small
// jitter. It returns the shard panic, if any, as an error.
func relayStorm(seed int64) (err error) {
	const workers = 4
	f := MustBuild(star(7, 1), nil, Shards(workers))
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
	ss.Run(workers)
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

// TestShardedPanicReraisedOnCaller pins pool failure handling: a handler
// panicking on a pool goroutine under Run(4) re-raises its original
// value on the caller, and no pool goroutine outlives the run. Every
// shard is busy in the first window and waits there for the other
// three, so the four shards run on four distinct goroutines and the
// first one off the caller's stack panics.
func TestShardedPanicReraisedOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	f := MustBuild(star(3, 1), nil, Shards(4))
	ss := f.ShardSet()
	n := ss.NumShards()
	if n != 4 {
		t.Fatalf("NumShards = %d, want 4", n)
	}
	type boom struct{ shard int }
	var (
		arrived  atomic.Int32
		all      = make(chan struct{})
		stalled  atomic.Bool
		thrown   atomic.Pointer[boom]
		onCaller = func() bool {
			pc := make([]uintptr, 64)
			frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
			for {
				fr, more := frames.Next()
				if strings.HasSuffix(fr.Function, "(*ShardSet).Run") {
					return true
				}
				if !more {
					return false
				}
			}
		}
	)
	for i := 0; i < n; i++ {
		i := i
		ss.Shard(i).Engine().AtCall(0, func(any) {
			if arrived.Add(1) == int32(n) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(5 * time.Second):
				stalled.Store(true)
			}
			v := &boom{shard: i}
			if !onCaller() && thrown.CompareAndSwap(nil, v) {
				panic(v)
			}
		}, nil)
	}
	var got any
	func() {
		defer func() { got = recover() }()
		ss.Run(4)
	}()
	if stalled.Load() {
		t.Fatal("the four busy shards did not run on four goroutines")
	}
	want := thrown.Load()
	if want == nil {
		t.Fatal("no shard ran off the caller goroutine")
	}
	if got != any(want) {
		t.Fatalf("Run re-raised %v, want the original panic value %v", got, want)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now != before {
		t.Fatalf("goroutines: %d after Run, %d before; the pool leaked", now, before)
	}
}
