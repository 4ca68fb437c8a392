package device

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// H2DResult reports the device-side handling of a host CXL.mem request.
type H2DResult struct {
	// Done is when device memory has served the request.
	Done sim.Time
	// Data is the 64-byte line for reads.
	Data []byte
	// DMCHit reports whether the DMC held the line (Type-2 only).
	DMCHit bool
	// DMCState is the DMC line state found before the access.
	DMCState cache.State
	// HostState is the coherence state the host may install for the line:
	// Shared when the DMC retains a shared copy, Exclusive otherwise. A
	// host store to a Shared line must upgrade ownership through the
	// device first (see UpgradeHostOwnership).
	HostState cache.State
	// BiasFlipped reports whether the access flipped a device-bias region
	// back to host bias (§IV-B).
	BiasFlipped bool
}

// H2D serves a host CXL.mem request arriving at the device at time arrive.
// addr must be device memory; data carries the payload for writes.
//
// On a Type-2 device the DCOH must first check (and possibly clean) the DMC
// state, but it never serves H2D data from DMC — only the device
// accelerator may read DMC (§IV, §V-C). A Type-3 device goes straight to
// device memory, which is why its H2D accesses are slightly faster.
func (d *Device) H2D(op cxl.HostOp, addr phys.Addr, data []byte, arrive sim.Time) H2DResult {
	return d.traceH2D(op, addr, arrive, d.h2d(op, addr, data, arrive, true))
}

// H2DTiming is H2D for a caller with no use for the line bytes (the host
// core's NTRun): the same bias flip, DMC check and downgrade or writeback,
// write-queue admission and statistics, minus the read's payload copy. It
// returns when device memory has served the request.
func (d *Device) H2DTiming(op cxl.HostOp, addr phys.Addr, arrive sim.Time) sim.Time {
	return d.traceH2D(op, addr, arrive, d.h2d(op, addr, nil, arrive, false)).Done
}

func (d *Device) traceH2D(op cxl.HostOp, addr phys.Addr, arrive sim.Time, res H2DResult) H2DResult {
	if d.tracer != nil {
		where := "mem"
		if res.DMCHit {
			where = "DMC+mem"
		}
		d.emit(trace.H2D, op.String(), phys.LineAddr(addr), arrive, res.Done, where)
	}
	return res
}

// h2d is the H2D datapath. wantData=false skips materializing the read's
// line; timing and every state transition are the same in both modes.
func (d *Device) h2d(op cxl.HostOp, addr phys.Addr, data []byte, arrive sim.Time, wantData bool) H2DResult {
	if !d.cfg.Type.HasDeviceMemory() {
		panic(fmt.Sprintf("device: H2D requires CXL.mem (Type-2/3); device is %v", d.cfg.Type))
	}
	addr = phys.LineAddr(addr)
	d.stats.H2D++
	t := arrive
	res := H2DResult{HostState: cache.Exclusive}

	if d.cfg.Type == cxl.Type2 {
		// Automatic bias flip on H2D to a device-bias region.
		if d.flipToHostBias(addr) {
			t += d.p.CXL.BiasFlipH2D
			res.BiasFlipped = true
		}
		// DMC coherence check (the Type-2 penalty of §V-C). Posted writes
		// overlap most of the check with write-queue admission, exposing
		// only the tag-lookup stage; reads pay it in full.
		check := d.p.Device.DMCCheckH2D
		transition := d.p.Device.OwnedTransition
		if op == cxl.NtSt {
			check /= 4
			transition /= 2
		}
		t += check
		if line := d.dmc.Peek(addr); line.Valid() {
			res.DMCHit = true
			res.DMCState = line.State
			d.stats.DMCHits++
			switch line.State {
			case cache.Modified:
				// Write back to device memory, then serve from memory.
				t += d.p.Device.ModifiedWriteback
				if line.Data != nil {
					d.mem.WriteLine(addr, line.Data)
				}
				if op.IsWrite() {
					d.dmc.Invalidate(addr)
				} else {
					line.State = cache.Shared
				}
			case cache.Owned, cache.Exclusive:
				// Downgrade so the host copy is legal.
				t += transition
				if op.IsWrite() {
					d.dmc.Invalidate(addr)
				} else {
					line.State = cache.Shared
				}
			case cache.Shared:
				// Negligible: the state is already compatible with a host
				// copy (§V-C: shared hits cost about the same as misses).
				if op.IsWrite() {
					d.dmc.Invalidate(addr)
				}
			}
			// When the DMC retains a shared copy after a read, the host may
			// only install the line Shared; an exclusive host copy next to
			// a live DMC line would let silent host upgrades break
			// coherence.
			if !op.IsWrite() {
				if l := d.dmc.Peek(addr); l.Valid() {
					res.HostState = cache.Shared
				}
			}
		}
	}

	// Device-memory service (H2D is never served from DMC).
	t += d.p.Device.DevMemCtrl
	// A temporal store (st) is a read-for-ownership: the host fetches the
	// line into its hierarchy and modifies it there, so the device side
	// behaves like a read. Only nt-st writes through immediately.
	if op == cxl.NtSt {
		if data != nil {
			d.mem.WriteLine(addr, data)
		}
		admitted := d.chs.PostWrite(addr, t)
		d.stats.DevWrites++
		res.Done = admitted
		return res
	}
	d.stats.DevMemReads++
	res.Done = t + d.p.DRAM.DDR4Read
	if wantData {
		res.Data = d.arena.Line()
		d.mem.ReadLine(addr, res.Data)
	}
	return res
}

// WriteDevMemDirect functionally stores bytes into device memory without
// timing (experiment setup and host LLC writebacks of device lines).
func (d *Device) WriteDevMemDirect(addr phys.Addr, data []byte) {
	d.mem.Write(addr, data)
}

// ReadDevMemDirect functionally reads bytes from device memory without
// timing.
func (d *Device) ReadDevMemDirect(addr phys.Addr, dst []byte) {
	d.mem.Read(addr, dst)
}

// UpgradeHostOwnership grants the host exclusive ownership of a
// device-memory line: the DCOH invalidates any DMC copy (an S→M upgrade
// of the host's cached copy must be globally observed). It returns the
// device-side processing cost.
func (d *Device) UpgradeHostOwnership(addr phys.Addr) sim.Time {
	if d.dmc != nil {
		d.dmc.Invalidate(phys.LineAddr(addr))
	}
	return d.p.Device.DMCCheckH2D
}

// RecallHMC back-invalidates the device's HMC copy of a host-memory line
// (the host home agent snooping the device on a conflicting host access).
// It returns the state and data the device held.
func (d *Device) RecallHMC(addr phys.Addr) (cache.State, []byte, bool) {
	if d.hmc == nil {
		return cache.Invalid, nil, false
	}
	return d.hmc.Invalidate(phys.LineAddr(addr))
}

// SetDMCState force-installs a DMC line in a given state, for the
// cross-validation experiments of §V-C (owned vs shared vs modified hits).
// Prefer priming states with real D2D requests where possible.
func (d *Device) SetDMCState(addr phys.Addr, st cache.State, data []byte) {
	if d.dmc == nil {
		panic("device: SetDMCState on a device without DMC")
	}
	if st == cache.Invalid {
		d.dmc.Invalidate(addr)
		return
	}
	d.dmc.Fill(phys.LineAddr(addr), st, data)
}
