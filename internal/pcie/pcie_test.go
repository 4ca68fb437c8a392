package pcie

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/timing"
)

func newEP() *Endpoint { return NewEndpoint(timing.Default()) }

func TestMMIORead256BExceeds4us(t *testing.T) {
	// §I / §II-A: a 256 B MMIO read takes longer than 4 µs.
	e := newEP()
	tr := e.MMIORead(256, 0)
	if tr.Done <= 4*sim.Microsecond {
		t.Fatalf("256B MMIO read = %v, paper says > 4us", tr.Done)
	}
	bw := 256 / tr.Done.Seconds()
	if bw >= 0.3e9 {
		t.Fatalf("256B MMIO read bandwidth = %.2f GB/s, paper says < 0.3", bw/1e9)
	}
}

func TestMMIOReadSerializesPerWord(t *testing.T) {
	e := newEP()
	one := e.MMIORead(64, 0)
	four := e.MMIORead(256, one.Done)
	if got := four.Done - one.Done; got != 4*one.Done {
		t.Fatalf("4-word read = %v, want 4 × %v", got, one.Done)
	}
}

func TestMMIOWriteOrderingLimit(t *testing.T) {
	e := newEP()
	one := e.MMIOWrite(64, 0)
	// One-way latency per posted word.
	if one.Done != timing.Default().PCIe.MMIOWriteOneWay {
		t.Fatalf("single write = %v", one.Done)
	}
	eight := NewEndpoint(timing.Default()).MMIOWrite(512, 0)
	if eight.Done != 8*one.Done {
		t.Fatalf("8-word write = %v, want 8 × %v", eight.Done, one.Done)
	}
}

func TestMMIOConsumesHostCPUFully(t *testing.T) {
	e := newEP()
	tr := e.MMIORead(1024, 0)
	if tr.HostCPU != tr.Done {
		t.Fatal("MMIO spins the CPU for the whole transfer")
	}
}

func TestDMASmallTransferDominatedBySetup(t *testing.T) {
	e := newEP()
	small := e.DMATransfer(64, 0, false)
	e2 := newEP()
	big := e2.DMATransfer(64<<10, 0, false)
	// Setup+engine dominates at 64 B: latency is within 2× of the 64 KB
	// fixed part... more precisely, the fixed costs exceed the streaming
	// time at 64 B.
	p := timing.Default()
	fixed := p.PCIe.DMASetup + p.PCIe.DMAEngine + p.PCIe.DMACompletion
	if small.Done < fixed {
		t.Fatalf("small DMA %v below fixed cost %v", small.Done, fixed)
	}
	if small.Done > fixed+sim.Microsecond {
		t.Fatalf("small DMA %v far above fixed cost", small.Done)
	}
	// Large transfers approach the streaming bandwidth.
	bw := float64(64<<10) / (big.Done - big.Submit).Seconds()
	if bw < 20e9 || bw > 30e9 {
		t.Fatalf("64KB DMA bandwidth = %.1f GB/s, want ~28 saturating <30 (Fig. 6)", bw/1e9)
	}
}

func TestDMAInterruptAddsHostCPU(t *testing.T) {
	e := newEP()
	polled := e.DMATransfer(4096, 0, false)
	e2 := newEP()
	intr := e2.DMATransfer(4096, 0, true)
	if intr.HostCPU <= polled.HostCPU {
		t.Fatal("interrupt completion must cost host CPU")
	}
	if intr.Done <= polled.Done {
		t.Fatal("interrupt completion must add latency")
	}
}

func TestDMAHostCPUFarBelowMMIO(t *testing.T) {
	// The whole point of DMA: the CPU posts a descriptor and is free.
	mm := newEP().MMIOWrite(4096, 0)
	dm := newEP().DMATransfer(4096, 0, false)
	if dm.HostCPU*4 > mm.HostCPU {
		t.Fatalf("DMA host CPU %v should be far below MMIO %v", dm.HostCPU, mm.HostCPU)
	}
}

func TestRDMADirections(t *testing.T) {
	h2d := newEP().RDMATransfer(4096, 0, H2D)
	d2h := newEP().RDMATransfer(4096, 0, D2H)
	if h2d.HostCPU == 0 {
		t.Fatal("host-initiated RDMA posts a verb on the host CPU")
	}
	if d2h.HostCPU != 0 {
		t.Fatal("device-initiated RDMA must not consume host CPU")
	}
	// Device-initiated transfers pay the Arm software overhead.
	if d2h.Done <= h2d.Done {
		t.Fatal("Arm-driven D2H RDMA should be slower than host-posted H2D")
	}
}

func TestRDMABandwidthSaturation(t *testing.T) {
	// Fig. 6: RDMA reaches ~40 GB/s end to end at large transfers on the
	// ×32 card.
	e := newEP()
	tr := e.RDMATransfer(256<<10, 0, H2D)
	bw := float64(256<<10) / tr.Done.Seconds()
	if bw < 36e9 || bw > 44e9 {
		t.Fatalf("RDMA end-to-end bandwidth = %.1f GB/s", bw/1e9)
	}
}

func TestDOCASlowerThanRDMA(t *testing.T) {
	// §V-D: PCIe-RDMA is more performant than PCIe-DOCA-DMA on the same
	// card.
	for _, size := range []int{64, 256, 4096, 64 << 10} {
		rdma := newEP().RDMATransfer(size, 0, H2D)
		doca := newEP().DOCATransfer(size, 0, H2D)
		if doca.Done <= rdma.Done {
			t.Errorf("size %d: DOCA %v should be slower than RDMA %v", size, doca.Done, rdma.Done)
		}
	}
}

func TestEnginesSerialize(t *testing.T) {
	e := newEP()
	a := e.DMATransfer(64<<10, 0, false)
	b := e.DMATransfer(64<<10, 0, false)
	if b.Done < a.Done {
		t.Fatal("concurrent DMAs must queue on the engine")
	}
	e.ResetTiming()
	c := e.DMATransfer(64<<10, 0, false)
	if c.Done != a.Done {
		t.Fatal("ResetTiming should restore idle engine behavior")
	}
}

func TestZeroSizeTransferStillCostsAWord(t *testing.T) {
	e := newEP()
	tr := e.MMIORead(0, 0)
	if tr.Done == 0 {
		t.Fatal("zero-size MMIO read should still cost one word")
	}
}
