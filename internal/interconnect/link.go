// Package interconnect models point-to-point links: PCIe 5.0 (the physical
// layer under both the CXL device and the plain-PCIe personalities), the
// inter-socket UPI used for NUMA emulation, and helper math for payload
// serialization.
//
// A link is full duplex: each direction is an independent serialized
// resource. A transfer occupies its direction for payload/bandwidth and then
// propagates for the link's one-way latency; bandwidth contention emerges
// when concurrent transfers overlap on one direction.
package interconnect

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/timing"
)

// Dir selects a link direction.
type Dir uint8

// Link directions: Down is host→device (or socket0→socket1), Up the
// reverse.
const (
	Down Dir = iota
	Up
)

// String names the direction.
func (d Dir) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// Link is a full-duplex point-to-point link.
type Link struct {
	name        string
	oneWay      sim.Time
	bytesPerSec float64
	dirs        [2]*sim.Resource
	transferred [2]uint64
}

// NewLink creates a link with the given one-way propagation latency and
// per-direction payload bandwidth.
func NewLink(name string, oneWay sim.Time, bytesPerSec float64) *Link {
	if oneWay < 0 || bytesPerSec <= 0 {
		panic(fmt.Sprintf("interconnect: bad link %q (%v, %v)", name, oneWay, bytesPerSec))
	}
	return &Link{
		name:        name,
		oneWay:      oneWay,
		bytesPerSec: bytesPerSec,
		dirs:        [2]*sim.Resource{sim.NewResource(name + ".down"), sim.NewResource(name + ".up")},
	}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// OneWay returns the propagation latency.
func (l *Link) OneWay() sim.Time { return l.oneWay }

// BytesPerSec returns the per-direction bandwidth.
func (l *Link) BytesPerSec() float64 { return l.bytesPerSec }

// Transfer sends payloadBytes in direction d starting no earlier than now.
// It returns the arrival time at the far end: serialization (queued behind
// earlier transfers on this direction) plus propagation. A zero-payload
// message (pure protocol flit) still propagates.
func (l *Link) Transfer(d Dir, now sim.Time, payloadBytes int) sim.Time {
	occ := timing.Serialize(payloadBytes, l.bytesPerSec)
	start := l.dirs[d].Claim(now, occ)
	l.transferred[d] += uint64(payloadBytes)
	return start + occ + l.oneWay
}

// Transferred reports total payload bytes moved in direction d.
func (l *Link) Transferred(d Dir) uint64 { return l.transferred[d] }

// Reset restores the link to idle.
func (l *Link) Reset() {
	for _, r := range l.dirs {
		r.Reset()
	}
	l.transferred = [2]uint64{}
}
