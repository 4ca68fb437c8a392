package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/timing"
)

func star(hosts, expanders int) Topology {
	return Star(hosts, expanders, NodeSpec{}, NodeSpec{}, LinkSpec{})
}

func TestValidateErrors(t *testing.T) {
	h := NodeSpec{ID: "h0", Kind: Host}
	h1 := NodeSpec{ID: "h1", Kind: Host}
	sw := NodeSpec{ID: "sw0", Kind: Switch}
	sw1 := NodeSpec{ID: "sw1", Kind: Switch}
	x := NodeSpec{ID: "x0", Kind: Type3}
	cases := []struct {
		name string
		topo Topology
		want string
	}{
		{"empty", Topology{}, "no nodes"},
		{"dup id", Topology{Nodes: []NodeSpec{h, h}}, "duplicate node ID"},
		{"empty id", Topology{Nodes: []NodeSpec{{Kind: Host}}}, "empty ID"},
		{"dangling link", Topology{Nodes: []NodeSpec{h},
			Links: []LinkSpec{{A: "h0", B: "ghost"}}}, "undeclared node"},
		{"self link", Topology{Nodes: []NodeSpec{h},
			Links: []LinkSpec{{A: "h0", B: "h0"}}}, "self-link"},
		{"dup link", Topology{Nodes: []NodeSpec{h, sw},
			Links: []LinkSpec{{A: "h0", B: "sw0"}, {A: "sw0", B: "h0"}}}, "duplicate link"},
		{"host-host", Topology{Nodes: []NodeSpec{h, h1},
			Links: []LinkSpec{{A: "h0", B: "h1"}}}, "host-host"},
		{"device-device", Topology{Nodes: []NodeSpec{x, {ID: "x1", Kind: Type3}},
			Links: []LinkSpec{{A: "x0", B: "x1"}}}, "must attach to a switch"},
		{"type3 on host", Topology{Nodes: []NodeSpec{h, x},
			Links: []LinkSpec{{A: "h0", B: "x0"}}}, "must attach to a switch"},
		{"type3 two links", Topology{Nodes: []NodeSpec{h, sw, sw1, x},
			Links: []LinkSpec{{A: "h0", B: "sw0"}, {A: "sw0", B: "x0"}, {A: "sw1", B: "x0"}}},
			"want exactly 1"},
		{"device no link", Topology{Nodes: []NodeSpec{h, sw, x},
			Links: []LinkSpec{{A: "h0", B: "sw0"}}}, "want exactly 1"},
		{"host on two switches", Topology{Nodes: []NodeSpec{h1, sw, h, sw1, x},
			Links: []LinkSpec{{A: "h1", B: "sw0"}, {A: "sw0", B: "h0"}, {A: "h0", B: "sw1"}, {A: "sw1", B: "x0"}}},
			"host node \"h0\" has 2 links"},
		{"lone host", Topology{Nodes: []NodeSpec{h}}, "host node \"h0\" has 0 links"},
		{"disconnected", Topology{Nodes: []NodeSpec{h, sw, h1, sw1},
			Links: []LinkSpec{{A: "h0", B: "sw0"}, {A: "h1", B: "sw1"}}}, "disconnected"},
		{"negative param", Topology{Nodes: []NodeSpec{h, sw},
			Links: []LinkSpec{{A: "h0", B: "sw0", OneWay: -1}}}, "negative parameter"},
		{"negative node knob", Topology{Nodes: []NodeSpec{h, {ID: "sw0", Kind: Switch, PortCredits: -1}},
			Links: []LinkSpec{{A: "h0", B: "sw0"}}}, "negative parameter on node"},
	}
	for _, tc := range cases {
		err := tc.topo.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %q, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := star(4, 2).Validate(); err != nil {
		t.Fatalf("Star(4,2).Validate() = %v", err)
	}
}

func TestCanonicalKeyStable(t *testing.T) {
	p := timing.Default()

	// Zero-valued knobs key identically to their explicit defaults.
	implicit := star(2, 1)
	explicit := Star(2, 1,
		NodeSpec{LLCBytes: defaultLLCBytes, LLCWays: defaultLLCWays, Cores: defaultCores},
		NodeSpec{PortCredits: defaultPortCredits, Forward: defaultForward},
		LinkSpec{OneWay: p.CXL.OneWay, BytesPerSec: p.CXL.BytesPerSec, Credits: defaultLinkCredits})
	if a, b := implicit.CanonicalKey(p), explicit.CanonicalKey(p); a != b {
		t.Errorf("zero-knob key differs from explicit defaults:\n%s\n%s", a, b)
	}

	// Node order and link orientation are canonicalized away.
	shuffled := star(2, 1)
	shuffled.Nodes[0], shuffled.Nodes[len(shuffled.Nodes)-1] =
		shuffled.Nodes[len(shuffled.Nodes)-1], shuffled.Nodes[0]
	for i := range shuffled.Links {
		shuffled.Links[i].A, shuffled.Links[i].B = shuffled.Links[i].B, shuffled.Links[i].A
	}
	if a, b := star(2, 1).CanonicalKey(p), shuffled.CanonicalKey(p); a != b {
		t.Errorf("key depends on declaration order:\n%s\n%s", a, b)
	}

	// Changing a parameter changes the key.
	fat := star(2, 1)
	fat.Links[0].BytesPerSec = 2 * p.CXL.BytesPerSec
	if star(2, 1).CanonicalKey(p) == fat.CanonicalKey(p) {
		t.Error("key ignores link bandwidth")
	}
	narrow := star(2, 1)
	narrow.Nodes[0].PortCredits = 1
	if star(2, 1).CanonicalKey(p) == narrow.CanonicalKey(p) {
		t.Error("key ignores switch port credits")
	}
}

func TestStarTransferAccounting(t *testing.T) {
	p := timing.Default()
	f := MustBuild(star(2, 1), p)
	if got := f.Expanders(); len(got) != 1 || got[0] != "x0" {
		t.Fatalf("Expanders() = %v", got)
	}

	// One read: header h0→sw0→x0, payload x0→sw0→h0.
	const n = 4096
	done := f.ReadShared("h0", "x0", n, 0)
	// Floor: two hops of propagation each way, switch forwarding on the
	// middle hops, memory service — strictly positive and well beyond the
	// four propagation delays alone.
	if floor := 4 * p.CXL.OneWay; done <= floor {
		t.Errorf("ReadShared completed at %v, faster than bare propagation %v", done, floor)
	}
	stats := f.LinkStats()
	byName := map[string]LinkStat{}
	for _, s := range stats {
		byName[s.Link] = s
	}
	h0 := byName["h0-sw0"] // A = h0: ABytes flows toward the switch
	x0 := byName["sw0-x0"] // A = sw0: ABytes flows toward the expander
	if h0.ABytes != hdrBytes || h0.BABytes != n {
		t.Errorf("h0-sw0 bytes = %d/%d, want %d/%d", h0.ABytes, h0.BABytes, hdrBytes, n)
	}
	if x0.ABytes != hdrBytes || x0.BABytes != n {
		t.Errorf("sw0-x0 bytes = %d/%d, want %d/%d", x0.ABytes, x0.BABytes, hdrBytes, n)
	}
	if other := byName["h1-sw0"]; other.ABytes != 0 || other.BABytes != 0 {
		t.Errorf("idle link h1-sw0 accounted traffic: %+v", other)
	}
	x := f.Expander("x0")
	if x.ReadBytes() != n || x.WriteBytes() != 0 {
		t.Errorf("expander bytes = %d read / %d written, want %d/0",
			x.ReadBytes(), x.WriteBytes(), n)
	}

	// A write adds payload toward the expander and a header ack back.
	f.WriteShared("h1", "x0", n, 0)
	for _, s := range f.LinkStats() {
		if s.Link == "sw0-x0" {
			x0 = s
		}
	}
	if x0.ABytes != hdrBytes+n || x0.BABytes != n+hdrBytes {
		t.Errorf("after write, sw0-x0 bytes = %d/%d, want %d/%d",
			x0.ABytes, x0.BABytes, hdrBytes+n, n+hdrBytes)
	}
	if x.WriteBytes() != n {
		t.Errorf("expander write bytes = %d, want %d", x.WriteBytes(), n)
	}
}

// randomSchedule drives a seeded random mix of shared reads and writes
// from every host against every expander and returns a stable rendering
// of all completion times plus the fabric's stats — the full observable
// surface the determinism and conservation properties quantify over.
func randomSchedule(seed int64, ops int) (render string, f *Fabric) {
	f = MustBuild(star(3, 2), nil)
	r := rng.New(seed)
	hosts, exps := f.Hosts(), f.Expanders()
	var b strings.Builder
	now := sim.Time(0)
	for i := 0; i < ops; i++ {
		now += sim.Time(r.Intn(200)) * sim.Nanosecond
		h := hosts[r.Intn(len(hosts))]
		x := exps[r.Intn(len(exps))]
		n := (1 + r.Intn(64)) * 64
		var done sim.Time
		if r.Intn(3) == 0 {
			done = f.WriteShared(h, x, n, now)
			fmt.Fprintf(&b, "w %s %s %d @%d -> %d\n", h, x, n, now, done)
		} else {
			done = f.ReadShared(h, x, n, now)
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
	return b.String(), f
}

// TestBytesConserved is the conservation property: everything the hosts
// push into the switch comes back out of it — summed over links, bytes
// sent toward sw0 equal bytes sw0 sent onward — and per-endpoint totals
// match the request/response protocol exactly.
func TestBytesConserved(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		_, f := randomSchedule(seed, 400)
		var intoSw, outOfSw uint64
		for _, s := range f.LinkStats() {
			// Star orientation: host links are declared h*-sw0 (A = host),
			// expander links sw0-x* (A = sw0).
			if strings.HasSuffix(s.Link, "-sw0") {
				intoSw += s.ABytes
				outOfSw += s.BABytes
			} else {
				outOfSw += s.ABytes
				intoSw += s.BABytes
			}
		}
		if intoSw != outOfSw {
			t.Errorf("seed %d: %d bytes into the switch, %d out", seed, intoSw, outOfSw)
		}
		if intoSw == 0 {
			t.Errorf("seed %d: no traffic recorded", seed)
		}
		// Expander-side totals: payload bytes serviced at the expanders
		// equal the payload carried on the expander links.
		var svc, wire uint64
		for _, id := range f.Expanders() {
			svc += f.Expander(id).ReadBytes() + f.Expander(id).WriteBytes()
		}
		for _, s := range f.LinkStats() {
			if !strings.HasSuffix(s.Link, "-sw0") {
				wire += s.ABytes + s.BABytes
			}
		}
		claims := uint64(0)
		for _, ps := range f.PortStats() {
			claims += ps.Claims
		}
		// Each op crosses exactly two switch egress ports (one per
		// direction of the round trip) and carries exactly one header on
		// the expander link: a read's request, or a write's ack.
		if wire != svc+claims/2*hdrBytes {
			t.Errorf("seed %d: expander wire bytes %d != serviced %d + headers", seed, wire, svc)
		}
	}
}

// TestPortFIFOOrdering pins the switch arbitration discipline: with a
// single-credit egress port, transfers issued in time order complete in
// that order, and a re-run of the identical schedule reproduces identical
// timing and stats.
func TestPortFIFOOrdering(t *testing.T) {
	topo := Star(3, 1, NodeSpec{}, NodeSpec{PortCredits: 1}, LinkSpec{})
	f := MustBuild(topo, nil)
	var dones []sim.Time
	for i, h := range f.Hosts() {
		// Stagger by 1ns: h0 first, then h1, h2 — all while the port is busy.
		dones = append(dones, f.ReadShared(h, "x0", 1<<14, sim.Time(i)*sim.Nanosecond))
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Errorf("FIFO violated: transfer %d completed at %v, before %d at %v",
				i, dones[i], i-1, dones[i-1])
		}
	}
	for _, ps := range f.PortStats() {
		if ps.Link == "sw0-x0" && ps.Waited == 0 {
			t.Errorf("single-credit port toward x0 recorded no arbitration wait: %+v", ps)
		}
	}
}

// TestScheduleDeterministicAcrossWorkers is the satellite property test:
// the full observable surface of a fabric schedule — per-transfer
// completion times, per-link byte totals, per-port FIFO stats — renders
// byte-identically whether the schedules run serially or spread across a
// parallel worker pool, at workers 1, 2 and GOMAXPROCS, clean under
// -race.
func TestScheduleDeterministicAcrossWorkers(t *testing.T) {
	jobs := make([]runner.Job, 6)
	for i := range jobs {
		seed := int64(100 + i)
		jobs[i] = runner.Job{
			ID: fmt.Sprintf("sched-%d", i),
			Run: func(ctx *runner.Ctx) (any, error) {
				// Each job builds its own fabric: shared-nothing, so the
				// only way outputs can differ across worker counts is a
				// determinism bug in the fabric itself.
				render, _ := randomSchedule(seed^ctx.Seed, 150)
				return render, nil
			},
		}
	}
	var serial string
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		res := runner.Run(jobs, runner.Options{Workers: w})
		vals, err := runner.Values(res)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var b strings.Builder
		for _, v := range vals {
			b.WriteString(v.(string))
		}
		if w == 1 {
			serial = b.String()
			continue
		}
		if b.String() != serial {
			t.Errorf("workers=%d renders different bytes than serial", w)
		}
	}
}

// TestPortContentionObservable: oversubscribing one egress port shows up
// in the stats — nonzero waiting and queue depth beyond the credit pool —
// while an amply-provisioned port stays quiet.
func TestPortContentionObservable(t *testing.T) {
	run := func(credits int) PortStat {
		topo := Star(3, 1, NodeSpec{}, NodeSpec{PortCredits: credits}, LinkSpec{})
		f := MustBuild(topo, nil)
		for i := 0; i < 8; i++ {
			for _, h := range f.Hosts() {
				f.ReadShared(h, "x0", 1<<13, 0)
			}
		}
		for _, ps := range f.PortStats() {
			if ps.Link == "sw0-x0" && ps.Switch == "sw0" {
				return ps
			}
		}
		t.Fatal("no port stat for sw0-x0")
		return PortStat{}
	}
	tight := run(2)
	ample := run(64)
	if tight.Waited == 0 || tight.PeakQueue <= 2 {
		t.Errorf("tight port shows no contention: %+v", tight)
	}
	if ample.Waited >= tight.Waited {
		t.Errorf("ample port waited %v, not less than tight %v", ample.Waited, tight.Waited)
	}
}

func TestPathRouting(t *testing.T) {
	f := MustBuild(star(2, 2), nil)
	// Two hops host→expander; payload accounted once per hop.
	f.Transfer("h0", "x1", 128, 0)
	var hops int
	for _, s := range f.LinkStats() {
		hops += int((s.ABytes + s.BABytes) / 128)
	}
	if hops != 2 {
		t.Errorf("h0→x1 crossed %d links, want 2", hops)
	}
	defer func() {
		if recover() == nil {
			t.Error("Transfer to unknown node did not panic")
		}
	}()
	f.Transfer("h0", "nope", 64, 0)
}
