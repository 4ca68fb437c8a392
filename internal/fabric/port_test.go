package fabric

import (
	"testing"

	"repro/internal/sim"
)

// portCheck drives one egress port directly and checks, at every claim,
// the port's in-flight record against a brute-force count over every
// completion released so far: the live record after the claim holds
// exactly the releases later than the claim's time, and PeakQueue is the
// largest such count plus the claiming transfer. Claim times must be
// nondecreasing, as they are for each of these tests.
type portCheck struct {
	t    *testing.T
	p    *port
	done []sim.Time
	peak int
}

func newPortCheck(t *testing.T, capacity int, forward sim.Time) *portCheck {
	return &portCheck{t: t, p: &port{sw: "sw", link: "l", forward: forward,
		credits: sim.NewCredits("port", capacity)}}
}

// claim claims at now, checks the record and returns the wire start.
func (c *portCheck) claim(now sim.Time) sim.Time {
	c.t.Helper()
	later := 0
	for _, d := range c.done {
		if d > now {
			later++
		}
	}
	c.peak = max(c.peak, later+1)
	start := c.p.claim(now)
	if live := len(c.p.busy) - c.p.head; live != later {
		c.t.Fatalf("claim at %v: record holds %d completions, want %d", now, live, later)
	}
	if c.p.peakQ != c.peak {
		c.t.Fatalf("claim at %v: PeakQueue = %d, want %d", now, c.p.peakQ, c.peak)
	}
	return start
}

func (c *portCheck) release(done sim.Time) {
	c.p.release(done)
	c.done = append(c.done, done)
}

// TestPortQueueRetiresPastCompletions: the credit pool retires lazily,
// so it still counts completions a later claim has seen pass; the port's
// record must not.
func TestPortQueueRetiresPastCompletions(t *testing.T) {
	c := newPortCheck(t, 4, 0)
	c.claim(0)
	c.release(10)
	c.claim(0)
	c.release(20)
	if got := c.p.credits.InFlight(); got != 2 {
		t.Fatalf("pool InFlight = %d, want 2 (lazy ring)", got)
	}
	if start := c.claim(15); start != 15 {
		t.Fatalf("claim(15) start = %v, want 15", start)
	}
	c.release(30)
	c.claim(50)
	if c.p.peakQ != 2 {
		t.Fatalf("PeakQueue = %d, want 2", c.p.peakQ)
	}
}

// TestPortQueueExhaustedGrant: an exhausted grant consumes the earliest
// completion from the credit pool before it passes, but that transfer is
// still on the wire at earlier instants and the port must count it.
func TestPortQueueExhaustedGrant(t *testing.T) {
	c := newPortCheck(t, 1, 5)
	if start := c.claim(0); start != 5 {
		t.Fatalf("first claim start = %v, want 5 (forward only)", start)
	}
	c.release(100)
	// The grant waits for (and consumes) the completion at 100.
	if start := c.claim(0); start != 105 {
		t.Fatalf("exhausted claim start = %v, want 105", start)
	}
	c.release(200)
	if got := c.p.credits.InFlight(); got != 1 {
		t.Fatalf("pool InFlight = %d, want 1 (completion at 100 consumed)", got)
	}
	// At 50 both transfers are in flight: depth 3 with this one.
	c.claim(50)
	c.release(300)
	c.claim(150)
	c.claim(250)
	if c.p.peakQ != 3 {
		t.Fatalf("PeakQueue = %d, want 3", c.p.peakQ)
	}
}

// TestPortQueueBurst: a burst larger than the pool at one instant, each
// transfer holding its slot for 100 — two run [0,100], two wait for them
// and run [100,200] — stays fully counted while it drains.
func TestPortQueueBurst(t *testing.T) {
	c := newPortCheck(t, 2, 0)
	for i, want := range []sim.Time{0, 0, 100, 100} {
		start := c.claim(0)
		if start != want {
			t.Fatalf("burst claim %d start = %v, want %v", i, start, want)
		}
		c.release(start + 100)
	}
	c.claim(50)
	if c.p.peakQ != 5 {
		t.Fatalf("PeakQueue = %d, want 5", c.p.peakQ)
	}
	c.release(250)
	c.claim(150)
	c.claim(350)
}

// TestPortQueueOverloaded drives an overloaded port — claims faster than
// service, so grants run ever further ahead of now and the record keeps
// growing and compacting — and checks the record at every claim.
func TestPortQueueOverloaded(t *testing.T) {
	c := newPortCheck(t, 4, 0)
	for i := 0; i < 2000; i++ {
		c.release(c.claim(sim.Time(i)) + 100)
	}
}

// portBurst transfers, alternating between two hosts, leave the switch
// through the one expander port at one instant: the hosts' links feed the
// port twice as fast as its wire drains, so most claims find its credits
// exhausted. The next burst starts once every delivery has landed.
const portBurst = 64

func portFabric() *Fabric { return MustBuild(star(2, 1), nil) }

func portBurstRound(f *Fabric, now sim.Time) (last sim.Time) {
	hosts := f.Hosts()
	for i := 0; i < portBurst; i++ {
		last = max(last, f.Transfer(hosts[i%2], "x0", 4096, now))
	}
	return last
}

// TestPortTransferZeroAllocs pins a saturated port's steady state: once
// the record's backing array has grown to a burst's depth, claim and
// release through Transfer must not allocate.
func TestPortTransferZeroAllocs(t *testing.T) {
	f := portFabric()
	var now sim.Time
	round := func() { now = portBurstRound(f, now) }
	round()
	for _, ps := range f.PortStats() {
		if ps.Link == "sw0-x0" && ps.Waited == 0 {
			t.Fatalf("port never waited, so the burst does not saturate it: %+v", ps)
		}
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("%.1f allocs per steady-state burst, want 0", avg)
	}
}

// BenchmarkPortTransfer measures one 4 KiB host-to-expander Transfer
// through a saturated switch egress port (see portBurst): the host link
// hop, then the port's claim and release around the second hop.
func BenchmarkPortTransfer(b *testing.B) {
	f := portFabric()
	hosts := f.Hosts()
	var now, last sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%portBurst == 0 {
			now = last
		}
		last = max(last, f.Transfer(hosts[i%2], "x0", 4096, now))
	}
}
