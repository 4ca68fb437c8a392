package device

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/interconnect"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Result is the accelerator-visible outcome of one memory request.
type Result struct {
	// Done is when the request completes from the accelerator's
	// perspective: data return for reads, global observation for writes.
	Done sim.Time
	// Data holds the 64-byte line for reads (nil in timing-only mode).
	Data []byte
	// HMCHit / DMCHit / LLCHit report where the line was found, for the
	// cross-validation the paper's methodology performs.
	HMCHit, DMCHit, LLCHit bool
}

// D2H issues one 64-byte device-to-host-memory request with the given cache
// hint (§IV-A). addr must be host memory. data carries the line for writes
// (nil allowed for timing-only runs). The request flows LSU → DCOH → HMC,
// escalating over the CXL link to the home agent when the HMC cannot serve
// it, and applies Table III's HMC-side state transitions.
func (d *Device) D2H(req cxl.D2HReq, addr phys.Addr, data []byte, now sim.Time) Result {
	res := d.d2h(req, addr, data, now)
	if d.tracer != nil {
		where := "mem"
		switch {
		case res.HMCHit:
			where = "HMC"
		case res.LLCHit:
			where = "LLC"
		}
		d.emit(trace.D2H, req.String(), phys.LineAddr(addr), now, res.Done, where)
	}
	return res
}

func (d *Device) d2h(req cxl.D2HReq, addr phys.Addr, data []byte, now sim.Time) Result {
	if !d.cfg.Type.HasDeviceCache() {
		panic(fmt.Sprintf("device: D2H requires CXL.cache (Type-1/2); device is %v", d.cfg.Type))
	}
	addr = phys.LineAddr(addr)
	d.stats.D2H++
	issue := d.lsu.Claim(now, d.p.Device.LSUIssueGap)
	t := issue + d.p.Device.LSUIssue + d.p.Device.DCOHLookup

	line := d.hmc.Peek(addr)
	hmcHit := line.Valid()

	switch req {
	case cxl.NCRead:
		// HMC hit: serve locally without any state change (Table III).
		if hmcHit {
			d.stats.HMCHits++
			return Result{Done: t + d.p.Device.HMCRead, Data: d.arena.Clone(line.Data), HMCHit: true}
		}
		return d.d2hReadRemote(req, addr, t, false)

	case cxl.CSRead:
		// HMC hit: serve and leave the line Shared (Table III: S across the
		// hit columns). A Modified line must write its data back to host
		// memory before losing write permission.
		if hmcHit {
			d.stats.HMCHits++
			if line.State == cache.Modified {
				arrive := d.link.Transfer(interconnect.Up, t, cxl.DataBytes)
				d.home.DowngradeToShared(addr, line.Data, arrive)
			}
			line.State = cache.Shared
			return Result{Done: t + d.p.Device.HMCRead, Data: d.arena.Clone(line.Data), HMCHit: true}
		}
		return d.d2hReadRemote(req, addr, t, true)

	case cxl.CORead:
		// HMC hit in M/E serves locally (M/E→M/E); Shared must upgrade via
		// RdOwn (S→E, Table III).
		if hmcHit && (line.State == cache.Modified || line.State == cache.Exclusive) {
			d.stats.HMCHits++
			return Result{Done: t + d.p.Device.HMCRead, Data: d.arena.Clone(line.Data), HMCHit: true}
		}
		return d.d2hReadRemote(req, addr, t, true)

	case cxl.COWrite:
		// HMC hit in M/E: write locally, line becomes Modified.
		if hmcHit && (line.State == cache.Modified || line.State == cache.Exclusive) {
			d.stats.HMCHits++
			line.State = cache.Modified
			if data != nil {
				setLineData(line, data)
			}
			return Result{Done: t + d.p.Device.HMCWrite, HMCHit: true}
		}
		// Acquire ownership from the home agent (one-way + grant cost), then
		// install the line in HMC as Modified.
		arrive := d.link.Transfer(interconnect.Up, t, cxl.HeaderBytes)
		res := d.home.D2H(cxl.COWrite, addr, nil, arrive)
		d.fillHMC(addr, cache.Modified, data, res.Done)
		return Result{Done: res.Done, LLCHit: res.LLCHit, HMCHit: hmcHit}

	case cxl.NCWrite:
		// Invalidate any HMC copy, then WrInv to host memory (one-way,
		// posted at the home agent).
		if hmcHit && d.fault != FaultStaleNCWrite {
			d.hmc.Invalidate(addr)
		}
		arrive := d.link.Transfer(interconnect.Up, t, cxl.DataBytes)
		res := d.home.D2H(cxl.NCWrite, addr, data, arrive)
		return Result{Done: res.Done, LLCHit: res.LLCHit, HMCHit: hmcHit}

	case cxl.NCP:
		// Update HMC, push the line into host LLC (ItoMWr), then invalidate
		// the HMC copy (Table III: HMC Invalid, LLC Modified).
		arrive := d.link.Transfer(interconnect.Up, t, cxl.DataBytes)
		res := d.home.D2H(cxl.NCP, addr, data, arrive)
		d.hmc.Invalidate(addr)
		return Result{Done: res.Done, LLCHit: res.LLCHit, HMCHit: hmcHit}

	default:
		panic(fmt.Sprintf("device: unknown D2H request %v", req))
	}
}

// d2hReadRemote escalates a read miss to the home agent over the link,
// optionally allocating the returned line into HMC.
func (d *Device) d2hReadRemote(req cxl.D2HReq, addr phys.Addr, t sim.Time, allocate bool) Result {
	start := d.d2hCredits.Acquire(t)
	reqBytes, respBytes := cxl.WireBytes(req)
	arrive := d.link.Transfer(interconnect.Up, start, reqBytes)
	res := d.home.D2H(req, addr, nil, arrive)
	done := d.link.Transfer(interconnect.Down, res.Done, respBytes)
	d.d2hCredits.Complete(done)
	if allocate && res.HMCState != cache.Invalid {
		d.fillHMC(addr, res.HMCState, res.Data, done)
		if d.fault == FaultDropDirectory {
			d.home.SnoopDevice(addr) // planted bug: lost snoop-filter update
		}
	}
	return Result{Done: done, Data: res.Data, LLCHit: res.LLCHit}
}

// fillHMC installs a line into HMC, writing a dirty victim back to host
// memory (posted over the link's up direction).
func (d *Device) fillHMC(addr phys.Addr, st cache.State, data []byte, now sim.Time) {
	v, evicted := d.hmc.Fill(addr, st, data)
	if evicted && v.Dirty() {
		d.stats.HMCWritebacks++
		arrive := d.link.Transfer(interconnect.Up, now, cxl.DataBytes)
		d.home.WritebackFromDevice(v.Addr, v.Data, arrive)
	}
}

// ReadHostBlock performs a Fig. 6-style multi-line D2H block read of size
// bytes starting at addr, pipelining line requests through the LSU and
// credits. It returns the completion time of the last line and, when dst is
// non-nil, fills dst with the data read.
func (d *Device) ReadHostBlock(req cxl.D2HReq, addr phys.Addr, size int, dst []byte, now sim.Time) sim.Time {
	if !req.IsRead() {
		panic("device: ReadHostBlock requires a read hint")
	}
	t := now + d.p.Device.LSUTransferSetup
	var last sim.Time
	for off := 0; off < size; off += phys.LineSize {
		r := d.D2H(req, addr+phys.Addr(off), nil, t)
		if dst != nil && r.Data != nil {
			copy(dst[off:min(off+phys.LineSize, len(dst))], r.Data)
		}
		if r.Done > last {
			last = r.Done
		}
	}
	return last
}

// WriteHostBlock performs a multi-line D2H block write of src (or size
// zero-bytes when src is nil) starting at addr with the given write hint.
func (d *Device) WriteHostBlock(req cxl.D2HReq, addr phys.Addr, src []byte, size int, now sim.Time) sim.Time {
	if !req.IsWrite() {
		panic("device: WriteHostBlock requires a write hint")
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
		r := d.D2H(req, addr+phys.Addr(off), data, t)
		if r.Done > last {
			last = r.Done
		}
	}
	return last
}

func setLineData(l *cache.Line, data []byte) {
	if len(data) != phys.LineSize {
		panic(fmt.Sprintf("device: line data %d bytes", len(data)))
	}
	if l.Data == nil {
		l.Data = make([]byte, phys.LineSize)
	}
	copy(l.Data, data)
}
