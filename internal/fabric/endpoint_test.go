package fabric

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/ping.golden instead of comparing")

// TestShardPartitionGenericTopology pins the endpoints of a topology
// with per-link latencies: the hub first (the switch and every expander
// behind it), then one endpoint per host; delivery distances are zero
// to self, positive, symmetric, and host to host exactly through the
// hub.
func TestShardPartitionGenericTopology(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{
			{ID: "h0", Kind: Host},
			{ID: "h1", Kind: Host},
			{ID: "sw0", Kind: Switch},
			{ID: "x0", Kind: Type3},
			{ID: "x1", Kind: Type3},
		},
		Links: []LinkSpec{
			{A: "h0", B: "sw0", OneWay: 90 * sim.Nanosecond},
			{A: "h1", B: "sw0"},
			{A: "sw0", B: "x0", OneWay: 10 * sim.Nanosecond},
			{A: "x1", B: "sw0", OneWay: 5 * sim.Nanosecond},
		},
	}
	f := MustBuild(topo, nil)
	eps := f.Endpoints()
	if len(eps) != 3 {
		t.Fatalf("%d endpoints, want 3 (hub + 2 hosts)", len(eps))
	}
	if again := f.Endpoints(); &again[0] != &eps[0] {
		t.Error("Endpoints rebuilt its endpoints on a second call")
	}
	// The expander link is inside the hub; each host's distance to it is
	// its own switch link.
	if got := eps[0].Dist(eps[1]); got != 90*sim.Nanosecond {
		t.Errorf("hub→h0 = %v, want h0's 90ns switch link", got)
	}
	if got := eps[0].Dist(eps[2]); got != f.Params().CXL.OneWay {
		t.Errorf("hub→h1 = %v, want the calibrated %v", got, f.Params().CXL.OneWay)
	}
	for i, a := range eps {
		if d := a.Dist(a); d != 0 {
			t.Errorf("Dist(%d,%d) = %v, want 0 (co-resident)", i, i, d)
		}
		for j, b := range eps {
			if i == j {
				continue
			}
			if d := a.Dist(b); d <= 0 {
				t.Errorf("Dist(%d,%d) = %v, want positive", i, j, d)
			}
			if a.Dist(b) != b.Dist(a) {
				t.Errorf("Dist(%d,%d) != Dist(%d,%d)", i, j, j, i)
			}
		}
	}
	// Host-to-host traffic routes through the hub: the triangle
	// inequality is tight on a star.
	if got, want := eps[1].Dist(eps[2]), eps[1].Dist(eps[0])+eps[0].Dist(eps[2]); got != want {
		t.Errorf("Dist(1,2) = %v, want %v (via hub)", got, want)
	}
}

// runPingSchedule drives a randomized message storm between the
// endpoints of a star fabric and renders every delivery, endpoint by
// endpoint in dispatch order. Each endpoint's handler logs (endpoint,
// time, payload state) and forwards the ping to a payload-chosen peer at
// the delivery distance plus a small payload-derived jitter, so many
// deliveries from different sources meet at one instant.
func runPingSchedule(seed int64, pings, hops int) string {
	f := MustBuild(star(3, 2), nil)
	eps := f.Endpoints()
	n := len(eps)

	type ping struct {
		state uint64
		hops  int
	}
	logs := make([]*strings.Builder, n)
	handlers := make([]func(any), n)
	for i := 0; i < n; i++ {
		logs[i] = &strings.Builder{}
		handlers[i] = func(a any) {
			p := a.(*ping)
			now := f.Engine().Now()
			fmt.Fprintf(logs[i], "%d %v %x %d\n", i, now, p.state, p.hops)
			if p.hops <= 0 {
				return
			}
			p.hops--
			p.state = p.state*6364136223846793005 + 1442695040888963407
			dst := int(p.state>>33) % n
			jitter := sim.Time(p.state>>17) % 50 * sim.Nanosecond
			eps[i].Send(eps[dst], now+jitter, handlers[dst], p)
		}
	}
	r := rng.New(seed)
	for k := 0; k < pings; k++ {
		src := r.Intn(n)
		at := sim.Time(r.Intn(500)) * sim.Nanosecond
		eps[src].At(at, handlers[src], &ping{
			state: r.Uint64(),
			hops:  hops,
		})
	}
	f.Engine().Run()
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
// property: a mail schedule renders exactly the golden bytes for several
// seeds. Same-instant deliveries from different sources land in (when,
// source, sequence) order, so any change to the merge keys that reorders
// one shows up here.
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
