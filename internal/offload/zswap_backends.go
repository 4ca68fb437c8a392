package offload

import (
	"fmt"

	"repro/internal/cxl"
	"repro/internal/lzc"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/zswap"
)

// NewZswapBackend returns the zswap data-plane backend for the variant.
func NewZswapBackend(v Variant, pl *Platform) zswap.Backend {
	switch v {
	case CPU:
		return &cpuZswap{hostPool{pl}}
	case PCIeRDMA:
		return &rdmaZswap{hostPool{pl}}
	case PCIeDMA:
		return &dmaZswap{hostPool{pl}}
	case CXL:
		return &cxlZswap{pl: pl}
	default:
		panic(fmt.Sprintf("offload: unknown variant %v", v))
	}
}

// hostPool is the functional zpool of the backends that keep it in host
// DRAM at 2 GiB: cpu, pcie-rdma and pcie-dma.
type hostPool struct{ pl *Platform }

func (h hostPool) PoolBase() phys.Addr                   { return 0x8000_0000 }
func (h hostPool) PoolWrite(addr phys.Addr, data []byte) { h.pl.Host.Store().Write(addr, data) }
func (h hostPool) PoolRead(addr phys.Addr, dst []byte)   { h.pl.Host.Store().Read(addr, dst) }

// decompress reads the compLen-byte compressed image at src out of b's
// zpool and inflates it, panicking on a corrupt image.
func decompress(b zswap.Backend, src phys.Addr, compLen int) []byte {
	comp := make([]byte, compLen)
	b.PoolRead(src, comp)
	page := make([]byte, phys.PageSize)
	if _, err := lzc.Decompress(page, comp); err != nil {
		panic(fmt.Sprintf("offload: %s zpool corruption at %v: %v", b.Name(), src, err))
	}
	return page
}

// ---------- cpu-zswap ----------

// cpuZswap runs compression on the reclaiming CPU itself — the kernel's
// stock zswap. Every cycle and every cache line it touches is stolen from
// co-running applications.
type cpuZswap struct{ hostPool }

func (b *cpuZswap) Name() string { return "cpu-zswap" }

func (b *cpuZswap) Store(page []byte, src, dst phys.Addr, now sim.Time) zswap.StoreResult {
	p := b.pl.P
	comp := lzc.Compress(nil, page)
	cost := p.SW.HostCompress4K
	return zswap.StoreResult{
		Comp:    comp,
		Done:    now + cost,
		HostCPU: cost,
		Breakdown: zswap.Breakdown{
			Compute: cost,
			Total:   cost,
		},
		// Source page + compressed destination stream through the cache.
		PollutedLines: phys.LinesPerPage + len(comp)/phys.LineSize,
	}
}

func (b *cpuZswap) Load(src phys.Addr, compLen int, dst phys.Addr, now sim.Time) zswap.LoadResult {
	p := b.pl.P
	page := decompress(b, src, compLen)
	cost := p.SW.HostDecompress4K
	return zswap.LoadResult{
		Page:          page,
		Done:          now + cost,
		HostCPU:       cost,
		PollutedLines: phys.LinesPerPage + compLen/phys.LineSize,
	}
}

// ---------- pcie-rdma-zswap (STYX-style, BF-3) ----------

// rdmaZswap offloads to the SNIC's Arm cores: the device RDMA-reads the
// page, compresses in Arm software, RDMA-writes the result back to a host-
// memory zpool, and interrupts the host (§VI, [32] reimplemented on BF-3).
type rdmaZswap struct{ hostPool }

func (b *rdmaZswap) Name() string { return "pcie-rdma-zswap" }

func (b *rdmaZswap) Store(page []byte, src, dst phys.Addr, now sim.Time) zswap.StoreResult {
	p := b.pl.P
	comp := lzc.Compress(nil, page)
	// Host posts the work-queue entry.
	post := p.PCIe.RDMAPost
	t := now + post
	// ② device-initiated RDMA read of the page.
	in := b.pl.EP.RDMATransfer(phys.PageSize, t, pcie.D2H)
	// ④ Arm compression.
	compute := p.SW.ArmCompress4K
	// ⑤ RDMA write of the compressed image into the host zpool — chained by
	// the Arm software already holding the context (no second WQE wrapper).
	out := b.pl.EP.RDMAFollowOn(len(comp), in.Done+compute)
	// Completion interrupt on the host.
	done := out.Done + p.PCIe.InterruptCost
	return zswap.StoreResult{
		Comp:    comp,
		Done:    done,
		HostCPU: post + p.PCIe.InterruptCost,
		Breakdown: zswap.Breakdown{
			TransferIn: in.Done - t,
			Compute:    compute,
			StoreOut:   out.Done - (in.Done + compute),
			Total:      out.Done - t,
		},
		// DDIO deposits the compressed image into host LLC.
		PollutedLines: len(comp) / phys.LineSize,
	}
}

func (b *rdmaZswap) Load(src phys.Addr, compLen int, dst phys.Addr, now sim.Time) zswap.LoadResult {
	p := b.pl.P
	page := decompress(b, src, compLen)
	// The faulting process posts the WQE and then polls for completion —
	// the synchronous fault path cannot afford an interrupt round trip.
	t := now + p.PCIe.RDMAPost
	in := b.pl.EP.RDMATransfer(compLen, t, pcie.D2H)
	out := b.pl.EP.RDMAFollowOn(phys.PageSize, in.Done+p.SW.ArmDecompress4K)
	poll := p.PCIe.RDMAPost // completion-queue polling cost
	done := out.Done + poll
	return zswap.LoadResult{
		Page:          page,
		Done:          done,
		HostCPU:       p.PCIe.RDMAPost + poll,
		PollutedLines: phys.LinesPerPage, // DDIO writes the whole page into LLC
	}
}

// ---------- pcie-dma-zswap (Agilex as a PCIe device) ----------

// dmaZswap offloads to the FPGA compression IP over plain PCIe DMA — the
// paper emulates this configuration by rate-matching CXL transfers to the
// measured PCIe-DMA latencies (§VII methodology); we model the DMA engine
// directly.
type dmaZswap struct{ hostPool }

func (b *dmaZswap) Name() string { return "pcie-dma-zswap" }

func (b *dmaZswap) Store(page []byte, src, dst phys.Addr, now sim.Time) zswap.StoreResult {
	p := b.pl.P
	comp := lzc.Compress(nil, page)
	// ② DMA the page into the device.
	in := b.pl.EP.DMATransfer(phys.PageSize, now, false)
	// ④ FPGA compression IP.
	compute := p.Device.CompressStartup + timing.Streaming(phys.PageSize, p.Device.CompressBytesPerSec)
	// ⑤ DMA the compressed image back to the host zpool.
	out := b.pl.EP.DMATransfer(len(comp), in.Done+compute, false)
	done := out.Done + p.PCIe.InterruptCost
	return zswap.StoreResult{
		Comp:    comp,
		Done:    done,
		HostCPU: in.HostCPU + out.HostCPU + p.PCIe.InterruptCost + p.PCIe.DMAStackCost,
		Breakdown: zswap.Breakdown{
			TransferIn: in.Done - now,
			Compute:    compute,
			StoreOut:   out.Done - (in.Done + compute),
			Total:      out.Done - now,
		},
		PollutedLines: len(comp) / phys.LineSize,
	}
}

func (b *dmaZswap) Load(src phys.Addr, compLen int, dst phys.Addr, now sim.Time) zswap.LoadResult {
	p := b.pl.P
	page := decompress(b, src, compLen)
	in := b.pl.EP.DMATransfer(compLen, now, false)
	compute := p.Device.CompressStartup + timing.Streaming(phys.PageSize, p.Device.DecompressBytesPerSec)
	out := b.pl.EP.DMATransfer(phys.PageSize, in.Done+compute, false)
	done := out.Done + p.PCIe.InterruptCost
	return zswap.LoadResult{
		Page:          page,
		Done:          done,
		HostCPU:       in.HostCPU + out.HostCPU + p.PCIe.InterruptCost + p.PCIe.DMAStackCost,
		PollutedLines: phys.LinesPerPage,
	}
}

// ---------- cxl-zswap (Fig. 7) ----------

// cxlZswap is the paper's contribution: doorbell by nt-st, D2H NC-read page
// pull pipelined with the compression IP, D2D NC-write into a zpool living
// in device memory, and an NC-P result push — no DMA setup, no interrupts,
// near-zero host-CPU involvement.
type cxlZswap struct{ pl *Platform }

func (b *cxlZswap) Name() string { return "cxl-zswap" }

// PoolBase places the zpool in device memory, 64 MiB in (§VI-A).
func (b *cxlZswap) PoolBase() phys.Addr { return mem.RegionDevice.Base + 64<<20 }

// zpoolScratch is a representative device-memory region used to model the
// timing of pool writes (the functional deposit goes to the allocator's
// chosen address via PoolWrite).
func (b *cxlZswap) zpoolScratch() phys.Addr { return b.pl.MailboxAddr + 1<<20 }

func (b *cxlZswap) Store(page []byte, src, dst phys.Addr, now sim.Time) zswap.StoreResult {
	p := b.pl.P
	comp := lzc.Compress(nil, page)

	// ① host doorbell, ② device picks the command up.
	cmdAt, hostCPU := b.pl.doorbell(now)

	// ②..④ pipelined: the D2H NC-read stream feeds the streaming
	// compression IP (§VI-A); completion is bounded by the slower of the
	// two, since CXL accesses are cache-line granular and the IP streams.
	readDone := b.pl.Dev.ReadHostBlock(cxl.NCRead, src, phys.PageSize, nil, cmdAt)
	compStream := cmdAt + p.Device.CompressStartup +
		timing.Streaming(phys.PageSize, p.Device.CompressBytesPerSec)
	stageDone := max(readDone, compStream)

	// ⑤ the tail of the compressed image is NC-written into the
	// device-memory zpool; all but the last chunk overlapped with ④.
	tail := min(len(comp), 512)
	storeDone := b.pl.Dev.WriteDevBlock(cxl.NCWrite, b.zpoolScratch(), nil, tail, stageDone)

	// ⑥ result (compressed size) NC-P'd to host LLC; the woken kswapd
	// reads it at LLC-hit latency.
	res := b.pl.Dev.D2H(cxl.NCP, src, nil, storeDone)
	pollLat, pollCPU := b.pl.resultPoll()
	done := res.Done + pollLat
	hostCPU += pollCPU

	return zswap.StoreResult{
		Comp:    comp,
		Done:    done,
		HostCPU: hostCPU,
		Breakdown: zswap.Breakdown{
			Total:     done - now,
			Pipelined: true,
		},
		// NC-read does not allocate in host caches; only the one result
		// line lands in LLC.
		PollutedLines: 1,
	}
}

func (b *cxlZswap) Load(src phys.Addr, compLen int, dst phys.Addr, now sim.Time) zswap.LoadResult {
	p := b.pl.P
	page := decompress(b, src, compLen)

	cmdAt, hostCPU := b.pl.doorbell(now)
	// ② D2D CS-read of the compressed image from the zpool, pipelined with
	// ④ the decompression IP.
	readDone := b.pl.Dev.ReadDevBlock(cxl.CSRead, src, compLen, nil, cmdAt)
	decompStream := cmdAt + p.Device.CompressStartup +
		timing.Streaming(phys.PageSize, p.Device.DecompressBytesPerSec)
	stageDone := max(readDone, decompStream)
	// ⑤ NC-P the decompressed page into host LLC (Insight 4); the body of
	// the push overlapped with decompression, so only the last line's trip
	// remains on the critical path.
	pushDone := b.pl.Dev.D2H(cxl.NCP, dst, nil, stageDone).Done
	pollLat, pollCPU := b.pl.resultPoll()
	done := pushDone + pollLat
	hostCPU += pollCPU

	return zswap.LoadResult{
		Page:    page,
		Done:    done,
		HostCPU: hostCPU,
		// The pushed page occupies LLC, but those are exactly the lines the
		// faulting application is about to read.
		PollutedLines: phys.LinesPerPage / 4,
	}
}

func (b *cxlZswap) PoolWrite(addr phys.Addr, data []byte) { b.pl.Dev.WriteDevMemDirect(addr, data) }
func (b *cxlZswap) PoolRead(addr phys.Addr, dst []byte)   { b.pl.Dev.ReadDevMemDirect(addr, dst) }
