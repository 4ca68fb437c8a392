package cxl2sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/experiments"
)

// This file provides the paper's §V microbenchmark methodology as a public
// API: issue N requests, record the issue time of the first and the
// completion of the Nth (the memo-style measurement), with explicit control
// over the cache placement being measured (LLC-1/LLC-0, DMC-1/DMC-0,
// HMC warm/cold).

// Placement primes where the target lines sit before each measurement.
type Placement uint8

// Placements.
const (
	// PlaceCold leaves every cache cold (LLC-0 / DMC-0 / HMC miss).
	PlaceCold Placement = iota
	// PlaceLLC demotes the lines into host LLC (the paper's CLDEMOTE
	// priming; LLC-1).
	PlaceLLC
	// PlaceHMC warms the device's host-memory cache with CS-reads.
	PlaceHMC
	// PlaceDMC warms the device-memory cache with CS-reads (DMC-1).
	PlaceDMC
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceCold:
		return "cold"
	case PlaceLLC:
		return "LLC-1"
	case PlaceHMC:
		return "HMC-1"
	case PlaceDMC:
		return "DMC-1"
	default:
		return fmt.Sprintf("Placement(%d)", uint8(p))
	}
}

// Measurement is a microbenchmark outcome, following the §V methodology:
// the latency of one primed access and the bandwidth of Burst
// back-to-back accesses. The paper takes the median of >= 1000
// repetitions; the model is deterministic, so every repetition takes the
// same time and one access is that median. StdDevNs is therefore always
// 0 and Reps only echoes the request; both stay because the /v1/measure
// response carries them.
type Measurement struct {
	MedianNs     float64
	StdDevNs     float64
	BandwidthGBs float64
	Reps, Burst  int
}

// MeasureSpec configures a measurement; a zero Burst takes the paper's
// experiments.PaperBurst. Reps drives no work (see Measurement); it is
// echoed, as experiments.PaperReps when 0, because the /v1/measure wire
// format carries it.
type MeasureSpec struct {
	Reps  int
	Burst int
	Place Placement
}

// measure runs the §V probe (experiments.Probe) over the given address
// stream (experiments.HostLine or DevLine, the Fig. 3–5 streams),
// priming each line with prime and timing it with access.
func (s *System) measure(spec MeasureSpec, line func(int) Addr, prime func(Addr), access func(Addr) Time) Measurement {
	if spec.Reps == 0 {
		spec.Reps = experiments.PaperReps
	}
	if spec.Burst == 0 {
		spec.Burst = experiments.PaperBurst
	}
	m := Measurement{Reps: spec.Reps, Burst: spec.Burst}
	m.MedianNs, m.BandwidthGBs = experiments.Probe{
		Burst: spec.Burst,
		Line:  line, Prime: prime, Reset: s.ResetTiming,
		Access: func(addr Addr) (Time, Time) {
			done := access(addr)
			return done, done
		},
	}.Run()
	return m
}

// MeasureD2H measures a D2H request type against host memory with the
// given placement (PlaceCold, PlaceLLC or PlaceHMC). D2H needs a device
// with CXL.cache (Type-2).
func (s *System) MeasureD2H(req D2HReq, spec MeasureSpec) (Measurement, error) {
	if spec.Place == PlaceDMC {
		return Measurement{}, fmt.Errorf("cxl2sim: PlaceDMC does not apply to D2H")
	}
	if !s.Dev.Type().HasDeviceCache() {
		return Measurement{}, fmt.Errorf("cxl2sim: D2H requires CXL.cache; device is %v", s.Dev.Type())
	}
	prime := func(addr Addr) {
		switch spec.Place {
		case PlaceCold:
			s.Host.LLC().Invalidate(addr)
			s.Dev.HMC().Invalidate(addr)
		case PlaceLLC:
			s.Host.Core(0).CLDemote(addr, cache.Exclusive, nil, 0)
			s.Dev.HMC().Invalidate(addr)
		case PlaceHMC:
			s.Dev.D2H(CSRead, addr, nil, 0)
			s.Host.LLC().Invalidate(addr)
		}
	}
	return s.measure(spec, experiments.HostLine, prime, func(addr Addr) Time {
		return s.Dev.D2H(req, addr, nil, 0).Done
	}), nil
}

// MeasureD2D measures a D2D request type against device memory with the
// given placement (PlaceCold or PlaceDMC). D2D needs a Type-2 device and
// a request other than NC-P, which targets host LLC.
func (s *System) MeasureD2D(req D2HReq, spec MeasureSpec) (Measurement, error) {
	if spec.Place != PlaceCold && spec.Place != PlaceDMC {
		return Measurement{}, fmt.Errorf("cxl2sim: D2D placement must be PlaceCold or PlaceDMC")
	}
	if t := s.Dev.Type(); !t.HasDeviceCache() || !t.HasDeviceMemory() {
		return Measurement{}, fmt.Errorf("cxl2sim: D2D requires a Type-2 device; device is %v", t)
	}
	if req == NCP {
		return Measurement{}, fmt.Errorf("cxl2sim: NC-P targets host LLC and does not apply to D2D")
	}
	prime := func(addr Addr) {
		if spec.Place == PlaceDMC {
			s.Dev.D2D(CSRead, addr, nil, 0)
		} else {
			s.Dev.DMC().Invalidate(addr)
		}
	}
	return s.measure(spec, experiments.DevLine, prime, func(addr Addr) Time {
		return s.Dev.D2D(req, addr, nil, 0).Done
	}), nil
}

// MeasureH2D measures a host op against device memory with the given
// placement (PlaceCold or PlaceDMC; PlaceLLC measures the NC-P-pushed fast
// path). PlaceDMC and PlaceLLC need a device with a cache (Type-2).
func (s *System) MeasureH2D(op HostOp, spec MeasureSpec) (Measurement, error) {
	if spec.Place == PlaceHMC {
		return Measurement{}, fmt.Errorf("cxl2sim: PlaceHMC does not apply to H2D")
	}
	if (spec.Place == PlaceDMC || spec.Place == PlaceLLC) && !s.Dev.Type().HasDeviceCache() {
		return Measurement{}, fmt.Errorf("cxl2sim: %v H2D placement requires a device cache; device is %v", spec.Place, s.Dev.Type())
	}
	prime := func(addr Addr) {
		s.Host.LLC().Invalidate(addr)
		switch spec.Place {
		case PlaceDMC:
			s.Dev.SetDMCState(addr, cache.Owned, nil)
		case PlaceLLC:
			s.Dev.D2H(NCP, addr, nil, 0)
		}
	}
	core := s.Host.Core(0)
	return s.measure(spec, experiments.DevLine, prime, func(addr Addr) Time {
		return core.Access(op, addr, nil, 0).Done
	}), nil
}
