// Package coherence implements the host-side home agent of the model: the
// component that receives D2H CXL.cache requests from the device's DCOH,
// consults and updates host LLC state, tracks which lines the device cache
// (HMC) holds, and produces the cache-coherence outcomes of the paper's
// Table III.
//
// The home agent is shared by the true-CXL path and the UPI-emulated path;
// only the per-request host-side cost tables differ (timing.CXLParams vs
// timing.UPIParams).
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// HomeAgent owns one socket's LLC, memory and coherence directory.
type HomeAgent struct {
	p        *timing.Params
	llc      *cache.Cache
	store    *mem.Store
	channels *mem.Channels
	// dir tracks lines currently held by the device HMC (the host-side
	// snoop filter over CXL.cache). Key is the line address.
	dir map[phys.Addr]cache.State
	// stats
	d2hReads, d2hWrites, backInvalidations uint64

	// arena backs the line buffers handed to requesters. Returned data
	// stays valid until the next ResetArena (bump allocation).
	arena phys.LineArena
}

// NewHomeAgent builds a home agent over the given LLC, backing store and
// memory channels.
func NewHomeAgent(p *timing.Params, llc *cache.Cache, store *mem.Store, channels *mem.Channels) *HomeAgent {
	return &HomeAgent{
		p:        p,
		llc:      llc,
		store:    store,
		channels: channels,
		dir:      make(map[phys.Addr]cache.State),
	}
}

// LLC exposes the agent's last-level cache (for experiment state priming and
// cross-validation, mirroring the paper's CLDEMOTE/CLFLUSH methodology).
func (h *HomeAgent) LLC() *cache.Cache { return h.llc }

// Store exposes the backing memory.
func (h *HomeAgent) Store() *mem.Store { return h.store }

// Channels exposes the memory controllers.
func (h *HomeAgent) Channels() *mem.Channels { return h.channels }

// DeviceHolds reports the directory's view of the HMC state for a line
// (Invalid if untracked).
func (h *HomeAgent) DeviceHolds(addr phys.Addr) cache.State {
	if len(h.dir) == 0 {
		return cache.Invalid
	}
	return h.dir[phys.LineAddr(addr)]
}

// D2HResult describes the host-side outcome of a D2H request.
type D2HResult struct {
	// Done is when the host-side processing completes: for reads, when data
	// is ready to inject on the response path; for writes, when the request
	// is globally observed (posted).
	Done sim.Time
	// Data is the 64-byte line for reads (nil for timing-only stores or
	// writes).
	Data []byte
	// LLCHit reports whether the line was present in LLC on arrival.
	LLCHit bool
	// HMCState is the state the device should install in its HMC afterward
	// (Invalid for requests that do not allocate).
	HMCState cache.State
}

// D2H processes one D2H request arriving at the home agent at time
// `arrive`. data must be the 64-byte payload for writes (nil allowed in
// timing-only mode). The returned result implements Table III's LLC-side
// state transitions; the device applies the HMC-side transitions.
func (h *HomeAgent) D2H(req cxl.D2HReq, addr phys.Addr, data []byte, arrive sim.Time) D2HResult {
	addr = phys.LineAddr(addr)
	line := h.llc.Peek(addr)
	hit := line.Valid()
	base := arrive + h.p.CXL.HomeBase

	switch req {
	case cxl.NCRead:
		// RdCurr: return current data, change no state anywhere.
		h.d2hReads++
		if hit {
			return D2HResult{
				Done:   base + h.p.CXL.HostLLCRead + h.p.CXL.NCReadExtraHit,
				Data:   h.arena.Clone(line.Data),
				LLCHit: true,
			}
		}
		return D2HResult{
			Done:   base + h.p.CXL.HostDRAMRead + h.p.CXL.NCReadExtraMiss,
			Data:   h.readMem(addr),
			LLCHit: false,
		}

	case cxl.CSRead:
		// RdShared: like RdCurr but the line is allocated into HMC in
		// Shared; an LLC copy, if any, downgrades to Shared.
		h.d2hReads++
		h.dir[addr] = cache.Shared
		if hit {
			if line.State == cache.Exclusive || line.State == cache.Modified {
				// Losing write permission: a Modified line must reach memory
				// now, because a Shared victim is dropped silently on
				// eviction and the stale memory copy would become visible.
				if line.State == cache.Modified && line.Data != nil {
					h.store.WriteLine(addr, line.Data)
					h.channels.PostWrite(addr, base)
				}
				line.State = cache.Shared
			}
			return D2HResult{
				Done:     base + h.p.CXL.HostLLCRead + h.p.CXL.CSReadExtraHit,
				Data:     h.arena.Clone(line.Data),
				LLCHit:   true,
				HMCState: cache.Shared,
			}
		}
		return D2HResult{
			Done:     base + h.p.CXL.HostDRAMRead + h.p.CXL.CSReadExtraMiss,
			Data:     h.readMem(addr),
			LLCHit:   false,
			HMCState: cache.Shared,
		}

	case cxl.CORead:
		// RdOwn: invalidate every host copy, hand the device an exclusive
		// copy (Table III: LLC → Invalid, HMC → Exclusive; E or M follows
		// the original LLC state).
		h.d2hReads++
		st := cache.Exclusive
		var payload []byte
		if hit {
			if line.State == cache.Modified {
				st = cache.Modified
			}
			_, d, _ := h.llc.Invalidate(addr)
			payload = h.arena.Clone(d)
			if payload == nil {
				payload = h.readMem(addr)
			}
			h.dir[addr] = st
			return D2HResult{
				Done:     base + h.p.CXL.HostLLCRead + h.p.CXL.CSReadExtraHit,
				Data:     payload,
				LLCHit:   true,
				HMCState: st,
			}
		}
		h.dir[addr] = st
		return D2HResult{
			Done:     base + h.p.CXL.HostDRAMRead + h.p.CXL.CSReadExtraMiss,
			Data:     h.readMem(addr),
			LLCHit:   false,
			HMCState: st,
		}

	case cxl.COWrite:
		// Ownership grant for a full-line device write: invalidate host
		// copies; the line will live in HMC as Modified. No data moves to
		// the host now.
		h.d2hWrites++
		h.llc.Invalidate(addr)
		h.dir[addr] = cache.Modified
		cost := h.p.CXL.COWriteHostMiss
		if hit {
			cost = h.p.CXL.COWriteHostHit
		}
		return D2HResult{Done: base + cost, LLCHit: hit, HMCState: cache.Modified}

	case cxl.NCWrite:
		// WrInv: invalidate host copies and write memory directly
		// (Table III: HMC and LLC both Invalid).
		h.d2hWrites++
		h.llc.Invalidate(addr)
		delete(h.dir, addr)
		if data != nil {
			h.store.WriteLine(addr, data)
		}
		cost := h.p.CXL.NCWriteHostMiss
		if hit {
			cost = h.p.CXL.NCWriteHostHit
		}
		// The write is posted into the owning controller's write queue.
		admitted := h.channels.PostWrite(addr, base+cost)
		return D2HResult{Done: admitted, LLCHit: hit}

	case cxl.NCP:
		// ItoMWr push: deposit the line directly into host LLC as Modified
		// (Table III: LLC Modified, HMC Invalid). The evicted victim, if
		// dirty, is written back to memory.
		h.d2hWrites++
		delete(h.dir, addr)
		if v, evicted := h.llc.Fill(addr, cache.Modified, data); evicted && v.Dirty() {
			if v.Data != nil {
				h.store.WriteLine(v.Addr, v.Data)
			}
			h.channels.PostWrite(v.Addr, base)
		}
		return D2HResult{Done: base + h.p.CXL.NCPHostCost, LLCHit: hit}

	default:
		panic(fmt.Sprintf("coherence: unknown D2H request %v", req))
	}
}

// WritebackFromDevice accepts a dirty HMC victim line: the device evicted a
// Modified/Exclusive line it owned; host memory is updated and the
// directory entry dropped. Returns the posted completion time.
func (h *HomeAgent) WritebackFromDevice(addr phys.Addr, data []byte, arrive sim.Time) sim.Time {
	addr = phys.LineAddr(addr)
	delete(h.dir, addr)
	if data != nil {
		h.store.WriteLine(addr, data)
	}
	return h.channels.PostWrite(addr, arrive+h.p.CXL.HomeBase)
}

// DowngradeToShared records that the device downgraded its copy of addr to
// Shared (a CS-read hit on a previously exclusive HMC line), writing the
// modified data back to host memory. The directory keeps tracking the
// now-shared device copy. Returns the posted completion time.
func (h *HomeAgent) DowngradeToShared(addr phys.Addr, data []byte, arrive sim.Time) sim.Time {
	addr = phys.LineAddr(addr)
	h.dir[addr] = cache.Shared
	if data != nil {
		h.store.WriteLine(addr, data)
	}
	return h.channels.PostWrite(addr, arrive+h.p.CXL.HomeBase)
}

// SnoopDevice is the host-side bookkeeping when the host CPU accesses a
// line the directory says the device may hold: the HMC entry is recalled
// (back-invalidated). It returns true if the device held the line, along
// with the state it held. The caller (host core model) adds the snoop
// latency; the device model drops its HMC copy through the DevicePort.
func (h *HomeAgent) SnoopDevice(addr phys.Addr) (cache.State, bool) {
	if len(h.dir) == 0 { // no device-held lines: skip the map hash
		return cache.Invalid, false
	}
	addr = phys.LineAddr(addr)
	st, ok := h.dir[addr]
	if ok {
		delete(h.dir, addr)
		h.backInvalidations++
	}
	return st, ok
}

// UnheldRun reports how many consecutive lines, starting at addr's line
// and stepping one line at a time, the directory does not track as
// device-held — up to max. Unlike SnoopDevice it mutates nothing; with no
// device-held lines it is O(1). Host block transfers use it to batch runs
// that need no snoop.
func (h *HomeAgent) UnheldRun(addr phys.Addr, max int) int {
	if len(h.dir) == 0 {
		return max
	}
	addr = phys.LineAddr(addr)
	for i := 0; i < max; i++ {
		if _, ok := h.dir[addr]; ok {
			return i
		}
		addr += phys.LineSize
	}
	return max
}

// Stats reports the agent's request counters.
func (h *HomeAgent) Stats() (d2hReads, d2hWrites, backInvals uint64) {
	return h.d2hReads, h.d2hWrites, h.backInvalidations
}

func (h *HomeAgent) readMem(addr phys.Addr) []byte {
	buf := h.arena.Line()
	h.store.ReadLine(addr, buf)
	return buf
}

// ResetArena rewinds the line-buffer arena; the host calls it from
// ResetTiming, where no buffer from the previous run is referenced.
func (h *HomeAgent) ResetArena() { h.arena.Reset() }
