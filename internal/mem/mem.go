// Package mem models the memory substrate: sparse byte-accurate backing
// stores, DRAM controllers with bounded posted-write queues, and the
// system's physical address map.
//
// The write-queue model reproduces the §V-A observation that 16 D2H writes
// (1 KB) fit into the 8 controllers' 32-entry × 64 B write queues and
// complete at queue speed, while longer write bursts collapse to DRAM drain
// bandwidth.
package mem

import (
	"fmt"

	"repro/internal/phys"
	"repro/internal/sim"
)

// Store is a sparse, line-granular backing store holding real bytes.
// Unwritten lines read as zero. Store is purely functional (no timing).
type Store struct {
	name  string
	lines map[phys.Addr][]byte
}

// NewStore returns an empty store.
func NewStore(name string) *Store {
	return &Store{name: name, lines: make(map[phys.Addr][]byte)}
}

// Name returns the store's diagnostic name.
func (s *Store) Name() string { return s.name }

// ReadLine copies the 64-byte line containing addr into dst (which must be
// LineSize bytes). Absent lines read as zero.
func (s *Store) ReadLine(addr phys.Addr, dst []byte) {
	if len(dst) != phys.LineSize {
		panic(fmt.Sprintf("mem: ReadLine dst %d bytes", len(dst)))
	}
	if l, ok := s.lines[phys.LineAddr(addr)]; ok {
		copy(dst, l)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
}

// WriteLine stores the 64-byte line containing addr.
func (s *Store) WriteLine(addr phys.Addr, src []byte) {
	if len(src) != phys.LineSize {
		panic(fmt.Sprintf("mem: WriteLine src %d bytes", len(src)))
	}
	base := phys.LineAddr(addr)
	l, ok := s.lines[base]
	if !ok {
		l = make([]byte, phys.LineSize)
		s.lines[base] = l
	}
	copy(l, src)
}

// Read copies n bytes starting at addr into dst; the range may span lines.
func (s *Store) Read(addr phys.Addr, dst []byte) {
	var line [phys.LineSize]byte
	for i := 0; i < len(dst); {
		base := phys.LineAddr(addr + phys.Addr(i))
		s.ReadLine(base, line[:])
		off := int(addr+phys.Addr(i)) - int(base)
		n := copy(dst[i:], line[off:])
		i += n
	}
}

// Write copies src into the store starting at addr; the range may span
// lines.
func (s *Store) Write(addr phys.Addr, src []byte) {
	var line [phys.LineSize]byte
	for i := 0; i < len(src); {
		base := phys.LineAddr(addr + phys.Addr(i))
		s.ReadLine(base, line[:]) // preserve surrounding bytes
		off := int(addr+phys.Addr(i)) - int(base)
		n := copy(line[off:], src[i:])
		s.WriteLine(base, line[:])
		i += n
	}
}

// Controller models one DRAM channel's posted-write machinery: a bounded
// write queue (32 × 64 B entries in the paper's Xeon) absorbing writes at
// queue speed, drained to DRAM at the channel's random-single-line rate.
type Controller struct {
	name  string
	queue *sim.Credits
	drain *sim.Resource
	// drainPerLine is the per-line drain service time.
	drainPerLine sim.Time
	writes       uint64
}

// NewController builds a channel controller with the given write-queue depth
// and per-line drain time.
func NewController(name string, queueEntries int, drainPerLine sim.Time) *Controller {
	return &Controller{
		name:         name,
		queue:        sim.NewCredits(name+".wq", queueEntries),
		drain:        sim.NewResource(name + ".drain"),
		drainPerLine: drainPerLine,
	}
}

// PostWrite admits one 64-byte posted write arriving at now. The returned
// time is when the write occupies a queue slot — the moment a store is
// architecturally complete for the issuing agent (§V-A: "write accesses are
// completed as soon as they enter the write queues"). If the queue is full,
// admission stalls until a slot drains.
func (c *Controller) PostWrite(now sim.Time) sim.Time {
	admitted := c.queue.Acquire(now)
	start := c.drain.Claim(admitted, c.drainPerLine)
	c.queue.Complete(start + c.drainPerLine)
	c.writes++
	return admitted
}

// Writes reports how many writes the controller has admitted.
func (c *Controller) Writes() uint64 { return c.writes }

// Reset restores the controller to idle.
func (c *Controller) Reset() {
	c.queue.Reset()
	c.drain.Reset()
	c.writes = 0
}

// Channels is a line-interleaved group of controllers, as a socket's 8
// DDR5 channels (4 under sub-NUMA clustering) or the device's 2 DDR4
// channels.
type Channels struct {
	ctrls []*Controller
}

// NewChannels builds n interleaved controllers.
func NewChannels(name string, n, queueEntries int, drainPerLine sim.Time) *Channels {
	if n <= 0 {
		panic("mem: channel count must be positive")
	}
	cs := make([]*Controller, n)
	for i := range cs {
		cs[i] = NewController(fmt.Sprintf("%s[%d]", name, i), queueEntries, drainPerLine)
	}
	return &Channels{ctrls: cs}
}

// N reports the channel count.
func (c *Channels) N() int { return len(c.ctrls) }

// For returns the controller owning addr (line interleaving).
func (c *Channels) For(addr phys.Addr) *Controller {
	return c.ctrls[int(phys.LineAddr(addr)/phys.LineSize)%len(c.ctrls)]
}

// PostWrite routes a posted write to the owning channel.
func (c *Channels) PostWrite(addr phys.Addr, now sim.Time) sim.Time {
	return c.For(addr).PostWrite(now)
}

// TotalWrites sums admitted writes across channels.
func (c *Channels) TotalWrites() uint64 {
	var n uint64
	for _, ct := range c.ctrls {
		n += ct.Writes()
	}
	return n
}

// Reset restores all channels to idle.
func (c *Channels) Reset() {
	for _, ct := range c.ctrls {
		ct.Reset()
	}
}
