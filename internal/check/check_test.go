package check

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

func newPlatform(t testing.TB) *host.Host {
	t.Helper()
	h := host.MustNew(timing.Default(), host.Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 4})
	if _, err := h.Attach(cxl.Type2); err != nil {
		t.Fatal(err)
	}
	return h
}

func line(b byte) []byte {
	d := make([]byte, phys.LineSize)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestCleanSystemPasses(t *testing.T) {
	h := newPlatform(t)
	if err := Coherence(h, h.Dev); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsDoubleOwnership(t *testing.T) {
	h := newPlatform(t)
	// Manufacture an illegal state directly: LLC Modified while HMC holds
	// Exclusive for the same host line.
	h.Dev.D2H(cxl.CORead, 0x1000, nil, 0) // HMC Exclusive, tracked
	h.LLC().Fill(0x1000, cache.Modified, nil)
	if err := Coherence(h, h.Dev); err == nil {
		t.Fatal("double ownership not detected")
	}
}

func TestDetectsUntrackedHMCLine(t *testing.T) {
	h := newPlatform(t)
	h.Dev.D2H(cxl.CSRead, 0x2000, nil, 0)
	// Sever the directory entry behind the agent's back.
	h.Home().SnoopDevice(0x2000)
	if err := Coherence(h, h.Dev); err == nil {
		t.Fatal("untracked HMC line not detected")
	}
}

func TestDeviceBiasExemption(t *testing.T) {
	h := newPlatform(t)
	devAddr := mem.RegionDevice.Base + 0x1000
	region := phys.Range{Base: mem.RegionDevice.Base, Size: 1 << 20}
	h.Dev.EnterDeviceBias(region, 0)
	// Software-managed mode: a stale LLC copy next to a modified DMC line
	// is the programmer's problem, not an invariant violation (§IV-B).
	h.Dev.D2D(cxl.COWrite, devAddr, line(1), 0)
	h.LLC().Fill(devAddr, cache.Shared, nil)
	if err := Coherence(h, h.Dev); err != nil {
		t.Fatalf("device-bias region should be exempt: %v", err)
	}
	// Back in host-bias, the same shape is a violation.
	h.Dev.ExitDeviceBias(region)
	if err := Coherence(h, h.Dev); err == nil {
		t.Fatal("host-bias violation not detected")
	}
}

func TestDataConsistency(t *testing.T) {
	h := newPlatform(t)
	expect := map[phys.Addr][]byte{}
	for i := 0; i < 8; i++ {
		addr := phys.Addr(0x4000 + i*64)
		h.Store().WriteLine(addr, line(byte(0x30+i)))
		expect[addr] = line(byte(0x30 + i))
	}
	if err := DataConsistency(h.Dev, expect); err != nil {
		t.Fatal(err)
	}
	// A device CO-write changes a line; the expectation must follow it.
	h.Dev.D2H(cxl.COWrite, 0x4000, line(0x99), 0)
	expect[0x4000] = line(0x99)
	if err := DataConsistency(h.Dev, expect); err != nil {
		t.Fatal(err)
	}
}

// TestRandomStimulusInvariants fuzzes the platform with a soup of D2H, D2D
// and H2D operations over a small line pool and checks the global
// invariants plus full data consistency after every step. This is the
// mechanized version of the paper's cross-validation methodology.
func TestRandomStimulusInvariants(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newPlatform(t)
			core := h.Core(0)
			emu := h.NewEmuCore()
			_ = emu

			hostLines := make([]phys.Addr, 16)
			for i := range hostLines {
				hostLines[i] = phys.Addr(0x8000 + i*64)
			}
			devLines := make([]phys.Addr, 16)
			for i := range devLines {
				devLines[i] = mem.RegionDevice.Base + phys.Addr(0x8000+i*64)
			}
			// Shadow model: the latest bytes written per line.
			shadow := map[phys.Addr][]byte{}
			now := sim.Time(0)
			reqs := []cxl.D2HReq{cxl.NCP, cxl.NCRead, cxl.NCWrite, cxl.CORead, cxl.COWrite, cxl.CSRead}
			d2dReqs := []cxl.D2HReq{cxl.NCRead, cxl.NCWrite, cxl.CORead, cxl.COWrite, cxl.CSRead}

			for op := 0; op < 400; op++ {
				now += sim.Microsecond
				switch rng.Intn(4) {
				case 0: // D2H
					req := reqs[rng.Intn(len(reqs))]
					addr := hostLines[rng.Intn(len(hostLines))]
					var data []byte
					if req.IsWrite() {
						data = line(byte(rng.Intn(256)))
						shadow[addr] = data
					}
					res := h.Dev.D2H(req, addr, data, now)
					if req.IsRead() && shadow[addr] != nil && res.Data[0] != shadow[addr][0] {
						t.Fatalf("op %d: D2H %v read %#x, want %#x", op, req, res.Data[0], shadow[addr][0])
					}
				case 1: // D2D
					req := d2dReqs[rng.Intn(len(d2dReqs))]
					addr := devLines[rng.Intn(len(devLines))]
					var data []byte
					if req.IsWrite() {
						data = line(byte(rng.Intn(256)))
						shadow[addr] = data
					}
					res := h.Dev.D2D(req, addr, data, now)
					if req.IsRead() && shadow[addr] != nil && res.Data[0] != shadow[addr][0] {
						t.Fatalf("op %d: D2D %v read %#x, want %#x", op, req, res.Data[0], shadow[addr][0])
					}
				case 2: // host access to host memory
					addr := hostLines[rng.Intn(len(hostLines))]
					if rng.Intn(2) == 0 {
						data := line(byte(rng.Intn(256)))
						shadow[addr] = data
						core.Access(hostWriteOp(rng), addr, data, now)
					} else {
						res := core.Access(cxl.Ld, addr, nil, now)
						if shadow[addr] != nil && res.Data[0] != shadow[addr][0] {
							t.Fatalf("op %d: host ld read %#x, want %#x", op, res.Data[0], shadow[addr][0])
						}
					}
				case 3: // host access to device memory
					addr := devLines[rng.Intn(len(devLines))]
					if rng.Intn(2) == 0 {
						data := line(byte(rng.Intn(256)))
						shadow[addr] = data
						core.Access(hostWriteOp(rng), addr, data, now)
					} else {
						res := core.Access(cxl.Ld, addr, nil, now)
						if shadow[addr] != nil && res.Data[0] != shadow[addr][0] {
							t.Fatalf("op %d: host devmem ld read %#x, want %#x", op, res.Data[0], shadow[addr][0])
						}
					}
				}
				if err := Coherence(h, h.Dev); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			// Final sweep: the device must observe every line's latest bytes.
			hostExpect := map[phys.Addr][]byte{}
			for _, a := range hostLines {
				if shadow[a] != nil {
					hostExpect[a] = shadow[a]
				}
			}
			if err := DataConsistency(h.Dev, hostExpect); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func hostWriteOp(rng *rand.Rand) cxl.HostOp {
	if rng.Intn(2) == 0 {
		return cxl.St
	}
	return cxl.NtSt
}
