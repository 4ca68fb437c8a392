// Package cxl defines the CXL protocol vocabulary of the model: the three
// protocols (CXL.io, CXL.cache, CXL.mem), the D2H request types a device
// accelerator may attach as cache hints (§IV-A), and device-type capability
// descriptions (Table I).
package cxl

import "fmt"

// Protocol is one of the three CXL sub-protocols.
type Protocol uint8

// The three CXL protocols (§II-B).
const (
	IO Protocol = 1 << iota
	Cache
	Mem
)

// String names a protocol set.
func (p Protocol) String() string {
	s := ""
	if p&IO != 0 {
		s += "io+"
	}
	if p&Cache != 0 {
		s += "cache+"
	}
	if p&Mem != 0 {
		s += "mem+"
	}
	if s == "" {
		return "none"
	}
	return s[:len(s)-1]
}

// DeviceType enumerates the CXL device types of Table I.
type DeviceType uint8

// Device types.
const (
	// Type1: io+cache — coherent D2H, no host-visible device memory (SNICs).
	Type1 DeviceType = iota + 1
	// Type2: io+cache+mem — coherent D2H, D2D and H2D (accelerators with
	// local memory); the paper's subject.
	Type2
	// Type3: io+mem — H2D/D2D only (memory expanders).
	Type3
)

// Protocols returns the protocol set the device type requires (Table I).
func (t DeviceType) Protocols() Protocol {
	switch t {
	case Type1:
		return IO | Cache
	case Type2:
		return IO | Cache | Mem
	case Type3:
		return IO | Mem
	default:
		return 0
	}
}

// HasDeviceCache reports whether the type implements CXL.cache (a device
// cache kept coherent by hardware).
func (t DeviceType) HasDeviceCache() bool { return t.Protocols()&Cache != 0 }

// HasDeviceMemory reports whether the type exposes device memory to the
// host through CXL.mem.
func (t DeviceType) HasDeviceMemory() bool { return t.Protocols()&Mem != 0 }

// String names the type.
func (t DeviceType) String() string {
	switch t {
	case Type1:
		return "CXL-Type1"
	case Type2:
		return "CXL-Type2"
	case Type3:
		return "CXL-Type3"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(t))
	}
}

// D2HReq is the cache hint a device accelerator attaches to a D2H (or D2D)
// request through the CAFU's AXI user signals (§IV-A). The hint selects the
// desired DCOH cache state and therefore the CXL.cache opcode used.
type D2HReq uint8

// D2H request types (Table III).
const (
	// NCP is the write-only non-cacheable push (ItoMWr): update HMC, write
	// the line into host LLC, invalidate HMC — unique to CXL Type-2 (§IV-A).
	NCP D2HReq = iota
	// NCRead is a non-cacheable read (RdCurr): no state change, no HMC fill.
	NCRead
	// NCWrite is a non-cacheable write (WrInv): invalidate HMC+LLC copies
	// and write host memory directly.
	NCWrite
	// CORead is a cacheable-owned read (RdOwn): exclusive copy into HMC,
	// host copies invalidated.
	CORead
	// COWrite is a cacheable-owned write (RdOwn): ownership grant, then
	// write into HMC as Modified.
	COWrite
	// CSRead is a cacheable-shared read (RdShared): like NCRead but the line
	// is allocated into HMC in Shared.
	CSRead
)

// String names the request type as the paper does.
func (r D2HReq) String() string {
	switch r {
	case NCP:
		return "NC-P"
	case NCRead:
		return "NC-rd"
	case NCWrite:
		return "NC-wr"
	case CORead:
		return "CO-rd"
	case COWrite:
		return "CO-wr"
	case CSRead:
		return "CS-rd"
	default:
		return fmt.Sprintf("D2HReq(%d)", uint8(r))
	}
}

// IsWrite reports whether the request modifies the line.
func (r D2HReq) IsWrite() bool { return r == NCP || r == NCWrite || r == COWrite }

// IsRead reports whether the request returns data to the accelerator.
func (r D2HReq) IsRead() bool { return r == NCRead || r == CORead || r == CSRead }

// Flit sizes used by the link-occupancy model: CXL flits are 64 B slots; a
// request/control message occupies a header's worth of a slot, a data
// message carries a 64 B line plus header.
const (
	// HeaderBytes approximates the protocol overhead of one request or
	// response message on the wire.
	HeaderBytes = 16
	// DataBytes is one cache line on the wire including its slot header.
	DataBytes = 64 + HeaderBytes
)

// WireBytes returns the payload the request and its response occupy on the
// request and response directions respectively.
func WireBytes(r D2HReq) (req, resp int) {
	if r.IsWrite() {
		return DataBytes, HeaderBytes // data out, GO/Cmp back
	}
	return HeaderBytes, DataBytes // request out, data back
}
