package device

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// D2D issues one 64-byte device-to-device-memory request (§IV-B). addr must
// be device memory. The request consults DMC first, then device memory; in
// host-bias mode the DCOH additionally checks whether the host holds the
// line before serving requests that could observe or break coherence, which
// is the latency/bandwidth penalty Fig. 4 quantifies.
func (d *Device) D2D(req cxl.D2HReq, addr phys.Addr, data []byte, now sim.Time) Result {
	res := d.d2d(req, addr, data, now, true)
	if d.tracer != nil {
		where := "mem"
		if res.DMCHit {
			where = "DMC"
		}
		d.emit(trace.D2D, req.String(), phys.LineAddr(addr), now, res.Done, where)
	}
	return res
}

// d2d is the D2D datapath. wantData selects timing-only mode for reads:
// when false, the caller has no use for the line bytes (a nil-dst block
// read), so the hit path skips the defensive clone and the non-allocating
// NC-read miss path skips the line buffer and backing-store lookup
// entirely. Timing and cache/memory state transitions are identical in
// both modes — NC reads never install DMC lines, and the cacheable-read
// fill still reads real bytes — so a timing-only read is observationally
// equivalent to a full one minus Result.Data.
func (d *Device) d2d(req cxl.D2HReq, addr phys.Addr, data []byte, now sim.Time, wantData bool) Result {
	d.checkD2D(req)
	if req.IsRead() {
		return d.d2dRead(req, addr, now, wantData)
	}
	addr = phys.LineAddr(addr)
	d.stats.D2D++
	hostBias := d.BiasOf(addr) == HostBias

	gap := d.p.Device.LSUIssueGap
	if hostBias {
		gap = d.p.Device.HostBiasWriteGap
	}
	issue := d.lsu.Claim(now, gap)
	t := issue + d.p.Device.LSUIssue + d.p.Device.DCOHLookup

	line := d.dmc.Peek(addr)
	dmcHit := line.Valid()

	if hostBias {
		// Host-bias coherence check (§IV-B): writes always consult the host
		// and recall/invalidate its copy.
		t += d.p.CXL.BiasCheck
		d.recallHostLine(addr, line, dmcHit)
	}

	switch {
	case req == cxl.COWrite:
		// Cacheable write: install in DMC as Modified.
		d.stats.DevWrites++
		if dmcHit {
			d.stats.DMCHits++
			line.State = cache.Modified
			if data != nil {
				setLineData(line, data)
			}
			return Result{Done: t + d.p.Device.DMCWrite, DMCHit: true}
		}
		d.fillDMC(addr, cache.Modified, data, t)
		return Result{Done: t + d.p.Device.DMCWrite}

	case req == cxl.NCWrite:
		// Non-cacheable write: invalidate DMC copy, post to device memory.
		d.stats.DevWrites++
		if dmcHit {
			d.dmc.Invalidate(addr)
		}
		if data != nil {
			d.mem.WriteLine(addr, data)
		}
		admitted := d.chs.PostWrite(addr, t+d.p.Device.DevMemCtrl)
		return Result{Done: admitted, DMCHit: dmcHit}

	default:
		panic(fmt.Sprintf("device: unsupported D2D request %v", req))
	}
}

// checkD2D validates that the device can serve D2D requests at all; block
// transfers hoist it out of their per-line loop.
func (d *Device) checkD2D(req cxl.D2HReq) {
	if !d.cfg.Type.HasDeviceMemory() || !d.cfg.Type.HasDeviceCache() {
		panic(fmt.Sprintf("device: D2D with cache hints requires Type-2; device is %v", d.cfg.Type))
	}
	if req == cxl.NCP {
		panic("device: NC-P targets host LLC and is not defined for D2D")
	}
}

// recallHostLine is the functional side of the host-bias coherence check:
// drop any host LLC copy so the device observes/owns the latest data.
func (d *Device) recallHostLine(addr phys.Addr, line *cache.Line, dmcHit bool) {
	if st, data, ok := d.home.LLC().Invalidate(addr); ok && (st == cache.Modified) && data != nil {
		// The host had newer data: it is transferred into DMC/devmem.
		d.mem.WriteLine(addr, data)
		if dmcHit {
			setLineData(line, data)
		}
	}
}

// d2dRead is the read half of the D2D datapath, split out so block reads
// dispatch straight into it per line with validation hoisted. Timing and
// state transitions are identical to routing through d2d.
func (d *Device) d2dRead(req cxl.D2HReq, addr phys.Addr, now sim.Time, wantData bool) Result {
	addr = phys.LineAddr(addr)
	d.stats.D2D++
	hostBias := d.BiasOf(addr) == HostBias

	issue := d.lsu.Claim(now, d.p.Device.LSUIssueGap)
	t := issue + d.p.Device.LSUIssue + d.p.Device.DCOHLookup

	line := d.dmc.Peek(addr)
	dmcHit := line.Valid()

	// Host-bias coherence check (§IV-B): reads of a Shared DMC line eschew
	// the check (the host can hold at most another shared copy); everything
	// else consults the host and recalls/invalidates its copy.
	if hostBias && !(dmcHit && line.State == cache.Shared) {
		t += d.p.CXL.BiasCheck
		d.recallHostLine(addr, line, dmcHit)
	}

	if dmcHit {
		d.stats.DMCHits++
		if req == cxl.CSRead && hostBias && line.State != cache.Shared {
			// Losing write permission: a Modified line's data must land
			// in device memory before the downgrade.
			if line.State == cache.Modified && line.Data != nil {
				d.mem.WriteLine(addr, line.Data)
				d.chs.PostWrite(addr, t)
			}
			line.State = cache.Shared
		}
		res := Result{Done: t + d.p.Device.DMCRead, DMCHit: true}
		if wantData {
			res.Data = d.arena.Clone(line.Data)
		}
		return res
	}
	// Miss: device memory access, allocating for cacheable reads.
	start := d.d2dCredits.Acquire(t)
	done := start + d.p.Device.DevMemCtrl + d.p.DRAM.DDR4Read
	d.d2dCredits.Complete(done)
	d.stats.DevMemReads++
	if !wantData && req == cxl.NCRead {
		// Timing-only NC read: no DMC fill and no caller for the bytes,
		// so device memory is not consulted functionally at all.
		return Result{Done: done}
	}
	buf := d.arena.Line()
	d.mem.ReadLine(addr, buf)
	if req == cxl.CSRead || req == cxl.CORead {
		st := cache.Exclusive // device-bias: no coherence state semantics
		if hostBias && req == cxl.CSRead {
			st = cache.Shared
		}
		d.fillDMC(addr, st, buf, done)
	}
	if !wantData {
		return Result{Done: done}
	}
	return Result{Done: done, Data: buf}
}

// fillDMC installs a line into the direct-mapped DMC, writing a dirty
// victim back to device memory.
func (d *Device) fillDMC(addr phys.Addr, st cache.State, data []byte, now sim.Time) {
	v, evicted := d.dmc.Fill(addr, st, data)
	if evicted && v.Dirty() {
		if v.Data != nil {
			d.mem.WriteLine(v.Addr, v.Data)
		}
		d.chs.PostWrite(v.Addr, now)
	}
}

// ReadDevBlock performs a multi-line D2D block read (e.g. pulling a
// compressed page out of the zpool, §VI-A step 2 of decompression). A nil
// dst selects timing-only mode: per-line latencies and all cache/memory
// state transitions are identical, but no line buffers are materialized —
// the fast path that keeps high-volume consumers (the LLM-serving KV
// streams) allocation-free. An untraced timing-only NC read also batches
// its miss-path runs (readDevBlockBatched).
func (d *Device) ReadDevBlock(req cxl.D2HReq, addr phys.Addr, size int, dst []byte, now sim.Time) sim.Time {
	if !req.IsRead() {
		panic("device: ReadDevBlock requires a read hint")
	}
	d.checkD2D(req)
	t := now + d.p.Device.LSUTransferSetup
	var last sim.Time
	wantData := dst != nil
	if !wantData && req == cxl.NCRead && d.tracer == nil {
		return d.readDevBlockBatched(addr, size, t)
	}
	for off := 0; off < size; off += phys.LineSize {
		la := addr + phys.Addr(off)
		r := d.d2dRead(req, la, t, wantData)
		if d.tracer != nil {
			where := "mem"
			if r.DMCHit {
				where = "DMC"
			}
			d.emit(trace.D2D, req.String(), phys.LineAddr(la), t, r.Done, where)
		}
		if wantData && r.Data != nil {
			copy(dst[off:min(off+phys.LineSize, len(dst))], r.Data)
		}
		if r.Done > last {
			last = r.Done
		}
	}
	return last
}

// readDevBlockBatched is the timing-only NC block read with per-line work
// collapsed into run-batched resource claims. A run of consecutive lines
// in one bias mode that the DMC does not hold all take the identical miss
// path — LSU issue claim, then a device-memory access through the d2d
// credit pool — so the run is admitted with one ClaimN and one credit
// Pipeline, both exactly equivalent to the per-line sequence. Under host
// bias each line also pays the bias check, which recalls nothing when the
// home LLC does not hold the line either, so such a run only starts its
// pipeline BiasCheck later. The per-line state reads stay valid across
// the run: an NC read miss installs no DMC line and touches no LLC line,
// so a scan computed ahead of the run cannot be invalidated by the run
// itself. DMC-resident lines, and host-bias lines the LLC holds, fall
// back to the general per-line path. The fused loop removes two calls
// and a 40-byte result copy per line, which dominated block-read cost for
// the KV streams.
func (d *Device) readDevBlockBatched(addr phys.Addr, size int, t sim.Time) sim.Time {
	var (
		last    sim.Time
		gap     = d.p.Device.LSUIssueGap
		lineLat = d.p.Device.LSUIssue + d.p.Device.DCOHLookup
		svc     = d.p.Device.DevMemCtrl + d.p.DRAM.DDR4Read
	)
	for off := 0; off < size; {
		la := phys.LineAddr(addr + phys.Addr(off))
		maxLines := (size - off + phys.LineSize - 1) / phys.LineSize
		n, hostBias := d.biasRun(la, maxLines)
		n = d.dmc.MissRun(la, n)
		lat := lineLat
		if hostBias && n > 0 {
			n = d.home.LLC().MissRun(la, n)
			lat += d.p.CXL.BiasCheck
		}
		if n == 0 {
			// DMC-resident, or host-bias and LLC-resident: general per-line path.
			r := d.d2dRead(cxl.NCRead, la, t, false)
			if r.Done > last {
				last = r.Done
			}
			off += phys.LineSize
			continue
		}
		d.stats.D2D += uint64(n)
		d.stats.DevMemReads += uint64(n)
		issue := d.lsu.ClaimN(t, gap, n)
		// Completion times are nondecreasing along the run, so the final
		// pipeline completion is the run's maximum.
		done := d.d2dCredits.Pipeline(issue+lat, gap, svc, n)
		if done > last {
			last = done
		}
		off += n * phys.LineSize
	}
	return last
}

// biasRun reports how many consecutive lines, starting at line-aligned la
// and up to max, share la's bias mode, and whether that mode is host
// bias. A device-bias run may end at an override's boundary without the
// device-bias region ending (adjacent overrides); callers re-enter for
// the remainder and lose only batching, not correctness.
func (d *Device) biasRun(la phys.Addr, max int) (n int, hostBias bool) {
	n = max
	for _, r := range d.biasOverrides {
		if r.Contains(la) {
			return min(max, int((uint64(r.End()-la)+phys.LineSize-1)/phys.LineSize)), false
		}
		if r.Base > la {
			// The first line at or past r.Base, if r holds it, ends the run.
			k := int((uint64(r.Base-la) + phys.LineSize - 1) / phys.LineSize)
			if r.Contains(la + phys.Addr(k*phys.LineSize)) {
				n = min(n, k)
			}
		}
	}
	return n, true
}

// WriteDevBlock performs a multi-line D2D block write (e.g. storing a
// compressed page into a device-memory zpool with NC-write, §VI-A step 5).
func (d *Device) WriteDevBlock(req cxl.D2HReq, addr phys.Addr, src []byte, size int, now sim.Time) sim.Time {
	if !req.IsWrite() {
		panic("device: WriteDevBlock requires a write hint")
	}
	t := now + d.p.Device.LSUTransferSetup
	var last sim.Time
	var lineBuf [phys.LineSize]byte
	for off := 0; off < size; off += phys.LineSize {
		var data []byte
		if src != nil {
			n := copy(lineBuf[:], src[off:])
			for i := n; i < phys.LineSize; i++ {
				lineBuf[i] = 0
			}
			data = lineBuf[:]
		}
		r := d.D2D(req, addr+phys.Addr(off), data, t)
		if r.Done > last {
			last = r.Done
		}
	}
	return last
}
