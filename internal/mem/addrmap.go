package mem

import (
	"fmt"

	"repro/internal/phys"
)

// Kind identifies what backs a physical address region.
type Kind uint8

// Region kinds.
const (
	// KindHost0 and KindHost1 are socket-local DDR5 (Table II).
	KindHost0 Kind = iota
	KindHost1
	// KindDevice is device memory exposed through the CXL HPA window
	// (CXL.mem makes it host-visible like a remote NUMA node, §II-B).
	KindDevice
	// KindMMIO is the device's PCIe MMIO BAR window.
	KindMMIO
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHost0:
		return "host-socket0"
	case KindHost1:
		return "host-socket1"
	case KindDevice:
		return "device-mem"
	case KindMMIO:
		return "mmio"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Default region layout. Generous fixed windows keep the map trivial; the
// simulated workloads touch a tiny fraction of each.
var (
	// RegionHost0 is socket 0's DRAM: 256 GiB at 0.
	RegionHost0 = phys.Range{Base: 0x0000_0000_0000, Size: 256 << 30}
	// RegionHost1 is socket 1's DRAM: 256 GiB.
	RegionHost1 = phys.Range{Base: 0x0040_0000_0000, Size: 256 << 30}
	// RegionDevice is the CXL device-memory window: 16 GiB (2× DDR4 DIMMs).
	RegionDevice = phys.Range{Base: 0x0080_0000_0000, Size: 16 << 30}
	// RegionMMIO is the PCIe BAR window: 1 GiB.
	RegionMMIO = phys.Range{Base: 0x00F0_0000_0000, Size: 1 << 30}
)

// Map resolves physical addresses to their backing region.
type Map struct {
	regions []struct {
		r phys.Range
		k Kind
	}
}

// NewMap returns the default system address map.
func NewMap() *Map {
	m := &Map{}
	m.add(RegionHost0, KindHost0)
	m.add(RegionHost1, KindHost1)
	m.add(RegionDevice, KindDevice)
	m.add(RegionMMIO, KindMMIO)
	return m
}

func (m *Map) add(r phys.Range, k Kind) {
	for _, e := range m.regions {
		if e.r.Overlaps(r) {
			panic(fmt.Sprintf("mem: region %v overlaps %v", r, e.r))
		}
	}
	m.regions = append(m.regions, struct {
		r phys.Range
		k Kind
	}{r, k})
}

// Resolve returns the kind backing addr; ok is false for unmapped holes.
func (m *Map) Resolve(addr phys.Addr) (Kind, bool) {
	_, k, ok := m.Region(addr)
	return k, ok
}

// Region returns the mapped range containing addr and its kind; ok is
// false for unmapped holes.
func (m *Map) Region(addr phys.Addr) (phys.Range, Kind, bool) {
	for _, e := range m.regions {
		if e.r.Contains(addr) {
			return e.r, e.k, true
		}
	}
	return phys.Range{}, 0, false
}

// IsDevice reports whether addr lives in device memory.
func (m *Map) IsDevice(addr phys.Addr) bool {
	k, ok := m.Resolve(addr)
	return ok && k == KindDevice
}

// IsHost reports whether addr lives in host DRAM (either socket).
func (m *Map) IsHost(addr phys.Addr) bool {
	k, ok := m.Resolve(addr)
	return ok && (k == KindHost0 || k == KindHost1)
}
