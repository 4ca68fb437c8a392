package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Endpoint is one source of events on the fabric's engine: the hub (the
// switches and their expanders) or one host. Endpoints interact only
// by mail, and mail crosses the sender's and the receiver's links to the
// switch: it lands up[src] + up[dst] after it is sent, where up is a
// host's cheapest one-way switch link and 0 for the hub.
//
// # Order
//
// Each endpoint tags the events it schedules with a merge key the engine
// orders same-instant events by: id<<SourceShift | seq<<1 for its local
// events and id<<SourceShift | out<<1 | 1 for its mail, seq and out
// being the endpoint's own counters. Keys are therefore unique, and the
// events that land on one endpoint dispatch by (time, source, counter)
// whatever the other endpoints do: mail is scheduled at least one link
// latency before it lands, so it is in the heap before its instant is
// reached, and the only events scheduled at the current instant are the
// current endpoint's own locals. A model whose endpoints share state only
// through mail therefore runs exactly as if each endpoint had an engine
// of its own.
type Endpoint struct {
	eng      *sim.Engine
	tag      uint64   // id<<SourceShift
	up       sim.Time // one-way latency of the host's switch link; 0 for the hub
	seq, out uint64
}

// Endpoints returns the fabric's mail endpoints: the hub first, then one
// per host in Hosts order. Repeated calls return the same endpoints.
func (f *Fabric) Endpoints() []*Endpoint {
	if f.endpoints != nil {
		return f.endpoints
	}
	eps := []*Endpoint{{eng: f.eng}}
	for _, h := range f.hostIDs {
		ep := &Endpoint{eng: f.eng, tag: uint64(len(eps)) << sim.SourceShift}
		// Validate gives every host exactly one link, and it joins the
		// host to a switch.
		for _, l := range f.links {
			if l.a == h || l.b == h {
				ep.up = l.spec.OneWay
			}
		}
		if len(eps) >= 1<<(64-sim.SourceShift) {
			panic(fmt.Sprintf("fabric: %d hosts overflow the merge key's source field", len(f.hostIDs)))
		}
		eps = append(eps, ep)
	}
	f.endpoints = eps
	return eps
}

// Dist returns the delivery distance of mail from e to dst: zero to
// itself, the sum of both ends' switch links otherwise.
func (e *Endpoint) Dist(dst *Endpoint) sim.Time {
	if dst == e {
		return 0
	}
	return e.up + dst.up
}

// At schedules the local event fn(arg) at when.
func (e *Endpoint) At(when sim.Time, fn func(any), arg any) {
	e.seq++
	e.eng.AtCallTagged(when, e.tag|e.seq<<1, fn, arg)
}

// Send delivers fn(arg) to dst at when plus the delivery distance. It
// must be called from within e's own events (or before the run starts),
// and `when` — the modeled emission time — must not precede the clock.
// Mail to the endpoint itself is a plain local event: co-resident
// interaction has no link to cross.
func (e *Endpoint) Send(dst *Endpoint, when sim.Time, fn func(any), arg any) {
	if now := e.eng.Now(); when < now {
		panic(fmt.Sprintf("fabric: mail sent at %v before now %v", when, now))
	}
	if dst == e {
		e.At(when, fn, arg)
		return
	}
	e.out++
	e.eng.AtCallTagged(when+e.Dist(dst), e.tag|e.out<<1|1, fn, arg)
}
