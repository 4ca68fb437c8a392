package ksm

import "repro/internal/sim"

// Daemon is ksmd: the periodic incremental scanner thread. Every wake it
// scans PagesPerBatch candidate pages (pages_to_scan) and sleeps
// SleepBetween (sleep_millisecs), exactly the kernel's pacing knobs.
type Daemon struct {
	Scanner *Scanner
	proc    *sim.Proc
	eng     *sim.Engine

	// PagesPerBatch is the kernel's pages_to_scan.
	PagesPerBatch int
	// SleepBetween is the kernel's sleep_millisecs.
	SleepBetween sim.Time
	// FloatCores, when set, makes the daemon migrate round-robin across
	// these cores at batch boundaries — ksmd is not pinned, so over a run
	// it disturbs every application core (§VII).
	FloatCores []*sim.Resource

	running bool
	stopped bool
	batches uint64
	coreIdx int
	// inBatch is the page count of the batch in progress, carried across
	// per-page scheduling slices of an offloaded backend.
	inBatch int
	// stepFn is the step method bound once, so the scan loop reschedules
	// without a per-event closure or method-value allocation.
	stepFn func(*sim.Proc)
}

// NewDaemon builds ksmd over scanner, pinned to core.
func NewDaemon(eng *sim.Engine, scanner *Scanner, core *sim.Resource) *Daemon {
	d := &Daemon{
		Scanner:       scanner,
		eng:           eng,
		proc:          sim.NewProc(eng, "ksmd", core),
		PagesPerBatch: 100,
		SleepBetween:  20 * sim.Millisecond,
	}
	d.stepFn = d.step
	return d
}

// Proc exposes the daemon's process.
func (d *Daemon) Proc() *sim.Proc { return d.proc }

// Batches reports how many scan batches have run.
func (d *Daemon) Batches() uint64 { return d.batches }

// Start begins the scan loop.
func (d *Daemon) Start() {
	if d.running {
		return
	}
	d.running = true
	d.stopped = false
	d.inBatch = 0
	d.proc.AdvanceTo(d.eng.Now())
	d.proc.Schedule(d.stepFn)
}

// Stop halts the loop after the current batch.
func (d *Daemon) Stop() { d.stopped = true }

// step scans pages until the quantum ends, resuming the batch recorded in
// d.inBatch. A host-CPU backend fills the whole PagesPerBatch quantum in
// one scheduling slice (co-runners on the core wait — the §VII
// interference); an offloaded backend makes the scanner sleep per page, so
// each page is its own event and co-runners interleave in simulated-time
// order.
func (d *Daemon) step(p *sim.Proc) {
	if d.stopped {
		d.running = false
		return
	}
	offloaded := d.Scanner.Backend().Offloaded()
	inBatch := d.inBatch
	for {
		d.Scanner.ScanOne(p)
		inBatch++
		if inBatch >= d.PagesPerBatch {
			d.batches++
			p.Sleep(d.SleepBetween)
			inBatch = 0
			if len(d.FloatCores) > 0 {
				d.coreIdx = (d.coreIdx + 1) % len(d.FloatCores)
				p.SetCore(d.FloatCores[d.coreIdx])
			}
			break
		}
		if offloaded {
			break // the device wait was a yield: new event per page
		}
	}
	d.inBatch = inBatch
	p.Schedule(d.stepFn)
}
