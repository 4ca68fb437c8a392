package cxl

import "fmt"

// HostOp is a host-CPU memory operation flavor, as used in the paper's H2D
// and emulated-D2H microbenchmarks: demand load (ld), non-temporal load
// (nt-ld), store (st), and non-temporal store (nt-st).
type HostOp uint8

// Host operations.
const (
	Ld HostOp = iota
	NtLd
	St
	NtSt
)

// String names the op as the paper does.
func (o HostOp) String() string {
	switch o {
	case Ld:
		return "ld"
	case NtLd:
		return "nt-ld"
	case St:
		return "st"
	case NtSt:
		return "nt-st"
	default:
		return fmt.Sprintf("HostOp(%d)", uint8(o))
	}
}

// IsWrite reports whether the op stores data.
func (o HostOp) IsWrite() bool { return o == St || o == NtSt }

// EquivalentD2H returns the D2H request type the paper pairs with the host
// op when comparing true and emulated D2H accesses (§V-A): nt-ld↔NC-rd,
// ld↔CS-rd, nt-st↔NC-wr, st↔CO-wr.
func (o HostOp) EquivalentD2H() D2HReq {
	switch o {
	case NtLd:
		return NCRead
	case Ld:
		return CSRead
	case NtSt:
		return NCWrite
	case St:
		return COWrite
	default:
		panic(fmt.Sprintf("cxl: unknown host op %d", o))
	}
}
