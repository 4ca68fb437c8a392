package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/phys"
	"repro/internal/sim"
)

func TestStoreLineRoundTrip(t *testing.T) {
	s := NewStore("host")
	line := make([]byte, phys.LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	s.WriteLine(0x1000, line)
	got := make([]byte, phys.LineSize)
	s.ReadLine(0x1000, got)
	if !bytes.Equal(got, line) {
		t.Fatal("line round trip failed")
	}
	// The write covers exactly its own line: both neighbours still read
	// zero.
	zero := make([]byte, phys.LineSize)
	for _, a := range []phys.Addr{0x1000 - phys.LineSize, 0x1000 + phys.LineSize} {
		s.ReadLine(a, got)
		if !bytes.Equal(got, zero) {
			t.Fatalf("line %#x = %x after writing 0x1000, want zero", a, got)
		}
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	s := NewStore("host")
	got := make([]byte, phys.LineSize)
	got[0] = 0xFF
	s.ReadLine(0x2000, got)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestStoreMisalignedAccessUsesLineBase(t *testing.T) {
	s := NewStore("host")
	line := make([]byte, phys.LineSize)
	line[63] = 0xAB
	s.WriteLine(0x1010, line) // misaligned: stores at 0x1000
	got := make([]byte, phys.LineSize)
	s.ReadLine(0x1000, got)
	if got[63] != 0xAB {
		t.Fatal("misaligned write did not round to line base")
	}
}

func TestStoreWrongSizePanics(t *testing.T) {
	s := NewStore("host")
	for _, fn := range []func(){
		func() { s.ReadLine(0, make([]byte, 10)) },
		func() { s.WriteLine(0, make([]byte, 128)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStoreSpanningReadWrite(t *testing.T) {
	s := NewStore("host")
	data := make([]byte, 300) // spans 5+ lines, misaligned start
	for i := range data {
		data[i] = byte(i * 3)
	}
	s.Write(0x1030, data)
	got := make([]byte, 300)
	s.Read(0x1030, got)
	if !bytes.Equal(got, data) {
		t.Fatal("spanning round trip failed")
	}
	// Neighboring bytes preserved.
	pre := make([]byte, phys.LineSize)
	s.ReadLine(0x1000, pre)
	for i := 0; i < 0x30; i++ {
		if pre[i] != 0 {
			t.Fatalf("byte before region clobbered at %d", i)
		}
	}
}

func TestStorePageRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore("p")
		page := make([]byte, phys.PageSize)
		rng.Read(page)
		base := phys.Addr(rng.Intn(1<<20)) &^ (phys.PageSize - 1)
		s.Write(base, page)
		got := make([]byte, phys.PageSize)
		s.Read(base, got)
		return bytes.Equal(got, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerPostedWritesCompleteAtQueueSpeed(t *testing.T) {
	// 16 writes into a 32-entry queue: all admitted immediately (§V-A).
	c := NewController("mc", 32, 64*sim.Nanosecond)
	for i := 0; i < 16; i++ {
		if admitted := c.PostWrite(sim.Time(i)); admitted != sim.Time(i) {
			t.Fatalf("write %d admitted at %v", i, admitted)
		}
	}
	if c.Writes() != 16 {
		t.Fatalf("Writes = %d", c.Writes())
	}
}

func TestControllerQueueOverflowStalls(t *testing.T) {
	drain := 64 * sim.Nanosecond
	c := NewController("mc", 4, drain)
	// Fill the queue instantaneously.
	for i := 0; i < 4; i++ {
		if got := c.PostWrite(0); got != 0 {
			t.Fatalf("write %d delayed to %v", i, got)
		}
	}
	// The 5th write must wait for the first drain (64 ns).
	if got := c.PostWrite(0); got != drain {
		t.Fatalf("overflow write admitted at %v, want %v", got, drain)
	}
	// The 6th waits for the second drain.
	if got := c.PostWrite(0); got != 2*drain {
		t.Fatalf("6th write admitted at %v, want %v", got, 2*drain)
	}
}

func TestControllerSteadyStateBandwidthIsDrainLimited(t *testing.T) {
	drain := 64 * sim.Nanosecond
	c := NewController("mc", 32, drain)
	const n = 1000
	var last sim.Time
	for i := 0; i < n; i++ {
		last = c.PostWrite(0)
	}
	// Admission rate converges to the drain rate: last admission ≈
	// (n - queueDepth) * drain.
	want := sim.Time(n-32) * drain
	if last != want {
		t.Fatalf("last admission %v, want %v", last, want)
	}
}

func TestChannelsInterleaving(t *testing.T) {
	ch := NewChannels("skt0", 8, 32, 64*sim.Nanosecond)
	if ch.N() != 8 {
		t.Fatalf("N = %d", ch.N())
	}
	// Consecutive lines hit consecutive controllers.
	c0 := ch.For(0x0000)
	c1 := ch.For(0x0040)
	if c0 == c1 {
		t.Fatal("adjacent lines mapped to the same channel")
	}
	if ch.For(0x0000+8*64) != c0 {
		t.Fatal("interleave stride wrong")
	}
}

func TestChannelsSpreadWrites(t *testing.T) {
	ch := NewChannels("skt0", 8, 32, 64*sim.Nanosecond)
	// 16 line writes round-robin across 8 channels: 2 per channel, all
	// admitted at time ~0 (the §V-A fits-in-queues case).
	var worst sim.Time
	for i := 0; i < 16; i++ {
		adm := ch.PostWrite(phys.Addr(i*64), 0)
		if adm > worst {
			worst = adm
		}
	}
	if worst != 0 {
		t.Fatalf("16 spread writes should all admit at 0; worst %v", worst)
	}
	if ch.TotalWrites() != 16 {
		t.Fatalf("TotalWrites = %d", ch.TotalWrites())
	}
	ch.Reset()
	if ch.TotalWrites() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAddrMapResolve(t *testing.T) {
	m := NewMap()
	cases := []struct {
		addr phys.Addr
		want Kind
	}{
		{0x0, KindHost0},
		{RegionHost0.End() - 1, KindHost0},
		{RegionHost1.Base, KindHost1},
		{RegionDevice.Base + 0x1000, KindDevice},
		{RegionMMIO.Base, KindMMIO},
	}
	for _, c := range cases {
		k, ok := m.Resolve(c.addr)
		if !ok || k != c.want {
			t.Errorf("Resolve(%v) = %v,%v; want %v", c.addr, k, ok, c.want)
		}
	}
	if _, ok := m.Resolve(RegionMMIO.End() + 0x1000); ok {
		t.Error("hole resolved")
	}
}

func TestAddrMapPredicates(t *testing.T) {
	m := NewMap()
	if !m.IsHost(0x1000) || !m.IsHost(RegionHost1.Base) {
		t.Fatal("IsHost wrong")
	}
	if m.IsHost(RegionDevice.Base) {
		t.Fatal("device memory is not host")
	}
	if !m.IsDevice(RegionDevice.Base) || m.IsDevice(0) {
		t.Fatal("IsDevice wrong")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindHost0: "host-socket0", KindHost1: "host-socket1",
		KindDevice: "device-mem", KindMMIO: "mmio",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", uint8(k), k.String())
		}
	}
}
