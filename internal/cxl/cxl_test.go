package cxl

import "testing"

func TestDeviceTypeProtocols(t *testing.T) {
	// Table I.
	if Type1.Protocols() != IO|Cache {
		t.Errorf("Type1 protocols = %v", Type1.Protocols())
	}
	if Type2.Protocols() != IO|Cache|Mem {
		t.Errorf("Type2 protocols = %v", Type2.Protocols())
	}
	if Type3.Protocols() != IO|Mem {
		t.Errorf("Type3 protocols = %v", Type3.Protocols())
	}
}

func TestDeviceTypeCapabilities(t *testing.T) {
	if !Type1.HasDeviceCache() || Type1.HasDeviceMemory() {
		t.Error("Type1: cache yes, memory no")
	}
	if !Type2.HasDeviceCache() || !Type2.HasDeviceMemory() {
		t.Error("Type2: cache and memory")
	}
	if Type3.HasDeviceCache() || !Type3.HasDeviceMemory() {
		t.Error("Type3: memory only")
	}
}

func TestProtocolString(t *testing.T) {
	if got := (IO | Cache | Mem).String(); got != "io+cache+mem" {
		t.Errorf("String = %q", got)
	}
	if got := Protocol(0).String(); got != "none" {
		t.Errorf("String = %q", got)
	}
}

func TestDeviceTypeString(t *testing.T) {
	for dt, want := range map[DeviceType]string{
		Type1: "CXL-Type1", Type2: "CXL-Type2", Type3: "CXL-Type3",
	} {
		if dt.String() != want {
			t.Errorf("%v.String() = %q", uint8(dt), dt.String())
		}
	}
}

func TestD2HReqNames(t *testing.T) {
	// The paper's Table III row names.
	for r, want := range map[D2HReq]string{
		NCP: "NC-P", NCRead: "NC-rd", NCWrite: "NC-wr",
		CORead: "CO-rd", COWrite: "CO-wr", CSRead: "CS-rd",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestD2HReqClassification(t *testing.T) {
	writes := []D2HReq{NCP, NCWrite, COWrite}
	reads := []D2HReq{NCRead, CORead, CSRead}
	for _, r := range writes {
		if !r.IsWrite() || r.IsRead() {
			t.Errorf("%v should be write-only", r)
		}
	}
	for _, r := range reads {
		if !r.IsRead() || r.IsWrite() {
			t.Errorf("%v should be read-only", r)
		}
	}
}

func TestWireBytes(t *testing.T) {
	req, resp := WireBytes(NCRead)
	if req != HeaderBytes || resp != DataBytes {
		t.Fatalf("read wire bytes = %d,%d", req, resp)
	}
	req, resp = WireBytes(COWrite)
	if req != DataBytes || resp != HeaderBytes {
		t.Fatalf("write wire bytes = %d,%d", req, resp)
	}
}

func TestHostOpStringsAndTemporality(t *testing.T) {
	for op, want := range map[HostOp]string{Ld: "ld", NtLd: "nt-ld", St: "st", NtSt: "nt-st"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
	if HostOp(9).String() == "" {
		t.Error("unknown host op should format")
	}
	if Ld.IsWrite() || NtLd.IsWrite() || !St.IsWrite() || !NtSt.IsWrite() {
		t.Error("IsWrite wrong")
	}
}

func TestEquivalentD2HPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HostOp(99).EquivalentD2H()
}

func TestDeviceTypeUnknowns(t *testing.T) {
	if DeviceType(9).Protocols() != 0 {
		t.Error("unknown type should have no protocols")
	}
	if DeviceType(9).String() == "" {
		t.Error("unknown type should format")
	}
}
