package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// render flattens the full observable surface of a Metrics — aggregate
// and per-replica serving numbers, fabric link and port stats — for
// byte-level determinism comparisons.
func render(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "router=%s gen=%d elapsed=%d goodput=%.3f ttft=%.3f/%.3f tpot=%.3f\n",
		m.Router, m.GenTokens, int64(m.Elapsed), m.Goodput,
		m.TTFT.Median(), m.TTFT.P99(), m.TPOT.Mean())
	for i, r := range m.Replicas {
		fmt.Fprintf(&b, "r%d req=%d gen=%d local=%d shared=%d ttft=%.3f tpot=%.3f\n",
			i, r.Requests, r.GenTokens, r.LocalBytes, r.SharedBytes,
			r.TTFT.Mean(), r.TPOT.Mean())
	}
	for _, l := range m.Links {
		fmt.Fprintf(&b, "link %s %d %d\n", l.Link, l.ABytes, l.BABytes)
	}
	for _, p := range m.Ports {
		fmt.Fprintf(&b, "port %s %s %d %d %d\n",
			p.Switch, p.Link, p.Claims, p.PeakQueue, int64(p.Waited))
	}
	return b.String()
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Replicas: 4, Requests: 48}
	a := render(Run(cfg))
	cfg.Router = nil // routers are single-use; rebuild
	b := render(Run(cfg))
	if a != b {
		t.Errorf("two runs of the same config rendered different bytes:\n%s\n---\n%s", a, b)
	}
	if c := render(Run(Config{Seed: 12, Replicas: 4, Requests: 48})); c == a {
		t.Error("different seeds rendered identical bytes")
	}
}

func TestAllRequestsServed(t *testing.T) {
	for _, mk := range []func() Router{NewRoundRobin, NewLeastLoaded, NewSessionAffinity} {
		cfg := Config{Seed: 3, Replicas: 3, Requests: 40, Router: mk()}
		m := Run(cfg)
		total, gen := 0, 0
		for _, r := range m.Replicas {
			total += r.Requests
			gen += r.GenTokens
		}
		if total != 40 {
			t.Errorf("%s: served %d requests, want 40", m.Router, total)
		}
		if gen != m.GenTokens || gen == 0 {
			t.Errorf("%s: replica tokens %d != aggregate %d", m.Router, gen, m.GenTokens)
		}
		if m.TTFT.N() != 40 {
			t.Errorf("%s: %d TTFT samples, want 40", m.Router, m.TTFT.N())
		}
		if m.Goodput <= 0 || m.Elapsed <= 0 {
			t.Errorf("%s: degenerate aggregate: goodput=%v elapsed=%v",
				m.Router, m.Goodput, m.Elapsed)
		}
		if m.TopoKey == "" || !strings.Contains(m.TopoKey, "sw0") {
			t.Errorf("%s: TopoKey = %q", m.Router, m.TopoKey)
		}
	}
}

func TestRoutersSpreadDifferently(t *testing.T) {
	dist := func(r Router) []int {
		m := Run(Config{Seed: 5, Replicas: 4, Requests: 64, Router: r})
		var d []int
		for _, rm := range m.Replicas {
			d = append(d, rm.Requests)
		}
		return d
	}
	rr := dist(NewRoundRobin())
	aff := dist(NewSessionAffinity())
	for i, n := range rr {
		if n != 16 {
			t.Errorf("round-robin replica %d served %d, want exactly 16", i, n)
		}
	}
	// The zipf session draw concentrates traffic: sticky routing cannot
	// also deal a perfectly even 16/16/16/16 hand.
	even := true
	for _, n := range aff {
		if n != 16 {
			even = false
		}
	}
	if even {
		t.Errorf("session affinity spread exactly like round-robin: %v", aff)
	}
}

func TestSessionAffinitySticky(t *testing.T) {
	c := New(Config{Replicas: 4})
	r := NewSessionAffinity()
	first := map[uint32]int{}
	for i := 0; i < 40; i++ {
		sess := uint32(i % 7)
		got := r.Route(&Request{ID: i, Session: sess}, c)
		if want, ok := first[sess]; ok && got != want {
			t.Fatalf("session %d moved from replica %d to %d", sess, want, got)
		}
		first[sess] = got
	}
}

// TestOversubscriptionContention is the acceptance-criteria scenario: a
// 4-replica cluster whose local pools hold the working set keeps the
// fabric quiet, while shrinking local+shared pools pushes KV traffic
// through the switch — visible in per-link bytes, egress-port
// arbitration waits, and slower tokens.
func TestOversubscriptionContention(t *testing.T) {
	base := Config{Seed: 9, Replicas: 4, Requests: 48, RatePerSec: 400_000}
	ample := base
	ample.LocalBlocks = 64
	oversub := base
	oversub.LocalBlocks = 4
	oversub.SharedBlocks = 24
	ma := Run(ample)
	base.Router = nil
	mo := Run(oversub)

	var ampleShared, overShared uint64
	for _, r := range ma.Replicas {
		ampleShared += r.SharedBytes
	}
	for _, r := range mo.Replicas {
		overShared += r.SharedBytes
	}
	if ampleShared != 0 {
		t.Errorf("ample local pools still spilled %d bytes to the fabric", ampleShared)
	}
	if overShared == 0 {
		t.Fatal("oversubscribed pools put no traffic on the fabric")
	}
	if mo.SwitchWaited() == 0 {
		t.Error("oversubscribed cluster recorded no switch arbitration wait")
	}
	if mo.PeakQueue() <= 1 {
		t.Errorf("oversubscribed cluster peak port queue = %d, want > 1", mo.PeakQueue())
	}
	var linkBytes uint64
	for _, l := range mo.Links {
		linkBytes += l.ABytes + l.BABytes
	}
	if linkBytes == 0 {
		t.Error("no per-link traffic recorded despite shared accesses")
	}
	if mo.TPOT.Mean() <= ma.TPOT.Mean() {
		t.Errorf("fabric-bound TPOT %.3f not slower than local TPOT %.3f",
			mo.TPOT.Mean(), ma.TPOT.Mean())
	}
}

// TestTinySharedPoolDrains pins the reservation-based admission: even a
// shared pool barely big enough for one request at a time drains the
// whole stream without deadlock — replicas blocked on capacity wake when
// another replica retires.
func TestTinySharedPoolDrains(t *testing.T) {
	m := Run(Config{
		Seed: 21, Replicas: 4, Requests: 32,
		LocalBlocks: 1, SharedBlocks: 8, // one request's worst case is 6 blocks
	})
	total := 0
	for _, r := range m.Replicas {
		total += r.Requests
	}
	if total != 32 {
		t.Fatalf("served %d of 32 requests", total)
	}
}

func TestUnservableStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a request larger than all pools did not panic")
		}
	}()
	Run(Config{Seed: 1, Replicas: 2, Requests: 4, LocalBlocks: 1, SharedBlocks: 1,
		PromptMin: 512, PromptMax: 512})
}

// TestEventsCounted pins Metrics.Events to the engine's real dispatches:
// every request is one arrival and one admission, and every batching
// step is a step, a bundle and a reply.
func TestEventsCounted(t *testing.T) {
	m := Run(Config{Seed: 11, Replicas: 4, Requests: 48})
	steps := m.Events - 2*48
	if m.Events <= 2*48 || steps%3 != 0 {
		t.Fatalf("Events = %d, want 2·48 plus a positive multiple of 3", m.Events)
	}
	if steps/3 < uint64(m.GenTokens)/4 {
		t.Errorf("%d steps for %d tokens at batch 4: too few", steps/3, m.GenTokens)
	}
}
