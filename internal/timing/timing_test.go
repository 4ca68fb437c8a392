package timing

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if msg := Default().Validate(); msg != "" {
		t.Fatalf("Default() invalid: %s", msg)
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	break_ := func(mut func(*Params)) string {
		p := Default()
		mut(p)
		return p.Validate()
	}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero core clock", func(p *Params) { p.Host.CoreGHz = 0 }},
		{"zero fabric clock", func(p *Params) { p.Device.FabricGHz = 0 }},
		{"zero load credits", func(p *Params) { p.Host.LoadCredits = 0 }},
		{"negative read credits", func(p *Params) { p.UPI.ReadCredits = -1 }},
		{"zero link bw", func(p *Params) { p.CXL.BytesPerSec = 0 }},
		{"zero write queue", func(p *Params) { p.DRAM.WriteQueueEntries = 0 }},
		{"zero compress rate", func(p *Params) { p.Device.CompressBytesPerSec = 0 }},
		{"zero channels", func(p *Params) { p.Host.MemChannels = 0 }},
	}
	for _, c := range cases {
		if msg := break_(c.mut); msg == "" {
			t.Errorf("%s: Validate did not catch it", c.name)
		}
	}
}

func TestClockPeriods(t *testing.T) {
	p := Default()
	if got := p.FabricCycle(); got != sim.FromNanos(2.5) {
		t.Fatalf("FabricCycle = %v, want 2.5ns", got)
	}
}

func TestSerialize(t *testing.T) {
	// 64 B on a 64 GB/s link = exactly 1 ns.
	if got := Serialize(64, 64e9); got != sim.Nanosecond {
		t.Fatalf("Serialize(64B, 64GB/s) = %v", got)
	}
	if got := Serialize(0, 64e9); got != 0 {
		t.Fatalf("Serialize(0) = %v", got)
	}
	if got := Serialize(-5, 64e9); got != 0 {
		t.Fatalf("Serialize(negative) = %v", got)
	}
}

func TestPaperStructuralRelations(t *testing.T) {
	// Structural facts from the paper that must hold in any calibration.
	p := Default()
	// §V-A: CXL ×16 PCIe5 has ~40 % more bandwidth than UPI 18×20GT/s.
	ratio := p.CXL.BytesPerSec / p.UPI.BytesPerSec
	if ratio < 1.3 || ratio > 1.5 {
		t.Errorf("CXL/UPI bandwidth ratio = %.2f, want ~1.4", ratio)
	}
	// §V-B: host CPU is 5.5× faster than the FPGA fabric.
	fr := p.Host.CoreGHz / p.Device.FabricGHz
	if fr < 5 || fr > 6 {
		t.Errorf("core/fabric frequency ratio = %.2f, want 5.5", fr)
	}
	// §V-A: LSU max issue bandwidth is 25.6 GB/s (64 B per 2.5 ns).
	lsuBW := 64.0 / p.Device.LSUIssueGap.Seconds()
	if lsuBW < 25e9 || lsuBW > 26e9 {
		t.Errorf("LSU max bandwidth = %.1f GB/s, want 25.6", lsuBW/1e9)
	}
	// §VI-A: the device compression IP is 1.8–2.8× faster than the host CPU.
	devPage := Streaming(4096, p.Device.CompressBytesPerSec)
	speedup := float64(p.SW.HostCompress4K) / float64(devPage)
	if speedup < 1.8 || speedup > 2.8 {
		t.Errorf("compression IP speedup = %.2f, want 1.8–2.8", speedup)
	}
	// §II-A: a 64 B MMIO read RT is ~1 µs.
	if p.PCIe.MMIOReadRT < sim.FromNanos(800) || p.PCIe.MMIOReadRT > sim.FromNanos(1300) {
		t.Errorf("MMIO read RT = %v, want ~1us", p.PCIe.MMIOReadRT)
	}
}

func TestDefaultReturnsFreshCopies(t *testing.T) {
	a := Default()
	b := Default()
	a.CXL.OneWay = 0
	if b.CXL.OneWay == 0 {
		t.Fatal("Default must return independent copies")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Default()
	p.CXL.OneWay = sim.FromNanos(99)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CXL.OneWay != sim.FromNanos(99) {
		t.Fatalf("OneWay = %v", got.CXL.OneWay)
	}
	if got.Host.CoreGHz != p.Host.CoreGHz {
		t.Fatal("round trip lost fields")
	}
}

func TestLoadPartialOverridesDefaults(t *testing.T) {
	in := strings.NewReader(`{"CXL": {"OneWay": 123000}}`)
	p, err := Load(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.CXL.OneWay != 123000 {
		t.Fatalf("override lost: %v", p.CXL.OneWay)
	}
	if p.Host.LoadCredits != Default().Host.LoadCredits {
		t.Fatal("defaults not preserved")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"Host": {"CoreGHz": 0}}`)); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := Load(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir() + "/params.json"
	if err := Default().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if msg := p.Validate(); msg != "" {
		t.Fatal(msg)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
