// Package timing holds every latency and bandwidth constant of the cxl2sim
// model in a single documented Params struct.
//
// The paper reports relative results (CXL vs UPI-emulated vs PCIe, host- vs
// device-bias, Type-2 vs Type-3) measured on real hardware; this model's
// constants are calibrated so those relations — who wins, by what factor,
// where the crossovers fall — are reproduced. Absolute picosecond values are
// plausible for the hardware described in Table II of the paper but are not
// claims about the authors' testbed. internal/experiments contains the
// calibration tests that pin the ratios to the paper's numbers.
//
// Components never embed raw numbers; they take a *Params and compose path
// latencies from these fields, so every modeling assumption is visible and
// ablatable here.
package timing

import "repro/internal/sim"

// Params is the complete timing model. Construct with Default and adjust
// fields for ablation studies; call Validate before use.
type Params struct {
	Host   HostParams
	UPI    UPIParams
	CXL    CXLParams
	Device DeviceParams
	DRAM   DRAMParams
	PCIe   PCIeParams
	SW     SoftwareParams
}

// HostParams models the dual-socket Xeon host (Table II: 2× Xeon 6538Y+,
// 32 cores, 60 MB LLC, 8× DDR5-4800 per socket).
type HostParams struct {
	// CoreGHz is the fixed core frequency (the paper pins 2.2 GHz).
	CoreGHz float64
	// IssueGap is the minimum spacing between consecutive memory ops issued
	// by one core (address generation + LSQ slot recycle).
	IssueGap sim.Time
	// StoreIssueGap is the spacing between retired stores draining from the
	// store buffer to the uncore — it bounds posted-write bandwidth.
	StoreIssueGap sim.Time
	// LocalLookup is the L1+L2 miss detection latency before a request
	// leaves the core.
	LocalLookup sim.Time
	// L1Hit and L2Hit are on-hit service latencies.
	L1Hit, L2Hit sim.Time
	// LLCHit is the on-hit LLC service latency seen by a local core.
	LLCHit sim.Time
	// LLCHitRemoteDevice is the LLC service latency for an H2D access that
	// was satisfied from LLC because the device pushed the line with NC-P
	// (includes the coherence-state check for a device-sourced line).
	LLCHitRemoteDevice sim.Time
	// LoadCredits bounds outstanding demand loads per core (line-fill
	// buffers); it caps load bandwidth.
	LoadCredits int
	// NTLoadCredits bounds outstanding non-temporal loads (fewer fill
	// buffers are available to the NT path).
	NTLoadCredits int
	// WCBuffers bounds outstanding write-combining (non-temporal) stores.
	WCBuffers int
	// NTStoreEgressGap is the uncore egress spacing of a non-temporal store
	// stream headed off-socket (it bounds H2D nt-st bandwidth, §V-C).
	NTStoreEgressGap sim.Time
	// CLFlush and CLDemote are the core-visible costs of CLFLUSH/CLDEMOTE.
	CLFlush, CLDemote sim.Time
	// DSASetup is the descriptor preparation + doorbell cost to launch a
	// Data Streaming Accelerator transfer; DSAStartup is the engine's fixed
	// pipeline fill; DSABytesPerSec is its streaming bandwidth.
	DSASetup, DSAStartup sim.Time
	DSABytesPerSec       float64
	// MemChannels is the number of DDR5 channels per socket; SNC halves it.
	MemChannels int
}

// UPIParams models the inter-socket link used to *emulate* a CXL Type-2
// device with a remote NUMA node (paper footnote 1): 18 lanes × 20 GT/s.
type UPIParams struct {
	// OneWay is the one-hop propagation+protocol latency.
	OneWay sim.Time
	// BytesPerSec is the usable payload bandwidth (~45 GB/s).
	BytesPerSec float64
	// RemoteLLCRead is the remote home's LLC read service latency.
	RemoteLLCRead sim.Time
	// RemoteDRAMRead is the remote home's memory read service latency
	// (directory lookup + DRAM).
	RemoteDRAMRead sim.Time
	// NTLoadExtraHit/Miss are the added costs of the non-temporal load path
	// versus a demand load (fill-buffer bypass), measured at LLC hit/miss.
	NTLoadExtraHit, NTLoadExtraMiss sim.Time
	// StoreGrantHit/Miss are the RFO-grant costs for a remote store.
	StoreGrantHit, StoreGrantMiss sim.Time
	// NTStoreFlushHit/Miss are the WC-buffer flush + remote post costs for a
	// non-temporal store.
	NTStoreFlushHit, NTStoreFlushMiss sim.Time
	// ReadCredits bounds outstanding remote reads over UPI.
	ReadCredits int
	// StoreCredits bounds outstanding remote RFO stores (the store buffer
	// keeps more stores in flight than the demand-load path keeps loads).
	StoreCredits int
}

// CXLParams models the CXL 1.1 ×16 link over PCIe 5.0 and the host-side
// CXL home-agent processing.
type CXLParams struct {
	// OneWay is the one-direction link latency (PHY + flit pack/unpack +
	// controller).
	OneWay sim.Time
	// BytesPerSec is the usable payload bandwidth (~64 GB/s raw; CXL flit
	// efficiency included).
	BytesPerSec float64
	// HomeBase is the host home-agent pipeline cost per D2H request.
	HomeBase sim.Time
	// HostLLCRead / HostDRAMRead are host-side service latencies for D2H
	// reads that hit / miss LLC.
	HostLLCRead, HostDRAMRead sim.Time
	// CSReadExtraHit/Miss are the shared-state transition costs of CS-read
	// over NC-read (HMC allocation bookkeeping at the home agent).
	CSReadExtraHit, CSReadExtraMiss sim.Time
	// NCReadExtraHit/Miss are residual NC-read (RdCurr) protocol costs.
	NCReadExtraHit, NCReadExtraMiss sim.Time
	// NCWriteHostHit/Miss are the host-side completion costs of NC-write
	// (WrInv): invalidate-and-post on hit, directory+post on miss.
	NCWriteHostHit, NCWriteHostMiss sim.Time
	// COWriteHostHit/Miss are the ownership-grant costs of CO-write (and
	// CO-read misses): invalidate host copies on hit, directory fetch on
	// miss.
	COWriteHostHit, COWriteHostMiss sim.Time
	// NCPHostCost is the host-side cost of an NC-P push into LLC.
	NCPHostCost sim.Time
	// D2HReadCredits bounds outstanding D2H reads held by the DCOH.
	D2HReadCredits int
	// H2DLoadCredits / H2DStoreCredits bound a host core's outstanding
	// demand loads / RFO stores to CXL memory (smaller than the local-memory
	// pools; they cap H2D read/store bandwidth in Fig. 5).
	H2DLoadCredits, H2DStoreCredits int
	// BiasCheck is the host snoop-filter consultation cost paid by D2D
	// accesses in host-bias mode when the host may hold the line.
	BiasCheck sim.Time
	// BiasFlipH2D is the cost of the automatic device→host bias flip
	// triggered by an H2D access to a device-bias region (§IV-B).
	BiasFlipH2D sim.Time
	// MemProc is the host-side CXL.mem protocol cost per H2D request.
	MemProc sim.Time
}

// DeviceParams models the Agilex-7 card: a 400 MHz FPGA fabric hosting the
// DCOH slice (4-way 128 KB HMC, direct-mapped 32 KB DMC), the CAFU/LSU,
// and accelerator IPs; 2× DDR4-2400 device memory.
type DeviceParams struct {
	// FabricGHz is the FPGA fabric clock (0.4 GHz).
	FabricGHz float64
	// LSUIssue is the per-request issue cost of the load/store unit.
	LSUIssue sim.Time
	// LSUIssueGap bounds the LSU's request rate (one 64 B request per fabric
	// cycle ⇒ 25.6 GB/s max, §V-A).
	LSUIssueGap sim.Time
	// DCOHLookup is the DCOH pipeline cost per request (tag lookup, hint
	// decode).
	DCOHLookup sim.Time
	// D2DReadCredits bounds the DCOH's outstanding D2D reads (DMC MSHRs).
	D2DReadCredits int
	// HostBiasWriteGap is the DCOH pipeline spacing for D2D writes in
	// host-bias mode (the snoop-tracking stage lowers write bandwidth 8–13 %
	// versus device-bias, Fig. 4).
	HostBiasWriteGap sim.Time
	// LSUTransferSetup is the CAFU command-processing overhead to start a
	// multi-line D2H/D2D transfer (the Fig. 6-style block transfers).
	LSUTransferSetup sim.Time
	// HMCRead / HMCWrite are HMC on-hit service latencies.
	HMCRead, HMCWrite sim.Time
	// DMCRead / DMCWrite are DMC on-hit service latencies.
	DMCRead, DMCWrite sim.Time
	// DevMemCtrl is the soft memory-controller traversal cost; device memory
	// access adds DRAM.DDR4Read/Write on top.
	DevMemCtrl sim.Time
	// DMCCheckH2D is the DMC coherence-state check every H2D request pays on
	// a Type-2 device (absent on Type-3) — the §V-C penalty.
	DMCCheckH2D sim.Time
	// OwnedTransition is the extra H2D cost when the target line sits in DMC
	// in owned state (downgrade to shared).
	OwnedTransition sim.Time
	// ModifiedWriteback is the extra H2D cost when the DMC line is modified
	// (write back to device memory first): the 36–40 % case of §V-C.
	ModifiedWriteback sim.Time
	// CompressBytesPerSec / DecompressBytesPerSec are the streaming rates of
	// the compression IP (§VI-A: 1.8–2.8× faster than the host CPU).
	CompressBytesPerSec, DecompressBytesPerSec float64
	// CompressStartup is the IP pipeline-fill cost per page.
	CompressStartup sim.Time
	// HashBytesPerSec and CompareBytesPerSec are the ksm IP rates.
	HashBytesPerSec, CompareBytesPerSec float64
	// DoorbellPollGap is the device polling interval on the shared mailbox
	// region (one D2D CS-read per interval).
	DoorbellPollGap sim.Time
}

// DRAMParams models the memory technologies of Table II.
type DRAMParams struct {
	// DDR5Read/Write are host-channel access latencies (row activate etc.)
	// beyond the controller queue.
	DDR5Read, DDR5Write sim.Time
	// DDR4Read/Write are device-memory access latencies.
	DDR4Read, DDR4Write sim.Time
	// WriteQueueEntries is the per-controller posted-write queue depth
	// (32 × 64 B per MC, §V-A).
	WriteQueueEntries int
	// WriteDrainPerLine is the per-line drain service time of one controller
	// under the random single-line pattern of the microbenchmarks; it sets
	// the post-queue-overflow write bandwidth.
	WriteDrainPerLine sim.Time
	// DDR4WriteDrainPerLine is the device controller's per-line drain time;
	// the soft controller schedules the accelerator's streaming writes more
	// favourably than the host's random single lines.
	DDR4WriteDrainPerLine sim.Time
	// ChannelBytesPerSec is a DDR5-4800 channel's streaming bandwidth.
	ChannelBytesPerSec float64
}

// PCIeParams models the plain-PCIe personalities (Agilex-7 as PCIe ×16, and
// the BlueField-3 SNIC at ×32) used in §V-D and the pcie-* kernel backends.
type PCIeParams struct {
	// MMIOReadRT is the uncacheable-read round trip for one 64 B word
	// (~1 µs, §II-A); MMIO reads serialize one at a time.
	MMIOReadRT sim.Time
	// MMIOWriteOneWay is the posted-write one-way latency; the strict
	// ordering requirement allows a single in-flight write.
	MMIOWriteOneWay sim.Time
	// DMASetup is the host-side descriptor + doorbell cost per DMA transfer;
	// DMAEngine is the device engine's fixed latency; DMABytesPerSec its
	// streaming rate (saturates ~30 GB/s, Fig. 6).
	DMASetup, DMAEngine sim.Time
	DMABytesPerSec      float64
	// DMACompletion is the host-visible completion signalling cost
	// (interrupt + handler, or poll).
	DMACompletion sim.Time
	// RDMAPost is the host verb-post cost; RDMANIC the BF-3 processing
	// latency; RDMABytesPerSec the ×32 streaming rate (up to 40 GB/s).
	RDMAPost, RDMANIC sim.Time
	RDMABytesPerSec   float64
	// RDMAArmOverhead is the BF-3 Arm-core software cost wrapped around each
	// device-initiated RDMA transfer (WQE handling + completion polling).
	RDMAArmOverhead sim.Time
	// DOCASetup / DOCAEngine / DOCABytesPerSec model DOCA-DMA, which the
	// paper measures as slower than RDMA on the same card.
	DOCASetup, DOCAEngine sim.Time
	DOCABytesPerSec       float64
	// InterruptCost is the host CPU cost of taking a device interrupt
	// (pcie-* backends need one per offload completion, §VII).
	InterruptCost sim.Time
	// DMAStackCost is the extra host software cost of the PCIe-DMA kernel
	// stack per offload (§VII: "the software stack of PCIe-DMA we use is
	// less efficient than that of PCIe-RDMA").
	DMAStackCost sim.Time
}

// SoftwareParams models the host/device software data-plane costs of the
// kernel features (§VI–VII). These represent instruction execution, not
// interconnect transfers (which the backends compute from the models above).
type SoftwareParams struct {
	// HostCompress4K / HostDecompress4K are the host-CPU costs of the zswap
	// codec per 4 KB page (the device IP is 1.8–2.8× faster).
	HostCompress4K, HostDecompress4K sim.Time
	// ArmCompress4K / ArmDecompress4K are BF-3 Arm-core costs (slower than
	// host, Table IV).
	ArmCompress4K, ArmDecompress4K sim.Time
	// HostHash4K / HostCompare4K are ksm's xxhash and byte-compare host
	// costs per page; Arm* are the BF-3 equivalents.
	HostHash4K, HostCompare4K sim.Time
	ArmHash4K, ArmCompare4K   sim.Time
	// KswapdControlPlane is the host-side bookkeeping per swapped page that
	// is never offloaded (LRU manipulation, radix tree, PTE updates).
	KswapdControlPlane sim.Time
	// KsmControlPlane is the per-candidate host bookkeeping of ksm (tree
	// walk, rmap, PTE CoW update).
	KsmControlPlane sim.Time
	// PageFaultBase is the host cost of a minor page fault without swap-in.
	PageFaultBase sim.Time
}

// Default returns the calibrated parameter set. See the package comment for
// what "calibrated" means; internal/experiments pins the resulting ratios to
// the paper's numbers.
func Default() *Params {
	ns := func(x float64) sim.Time { return sim.FromNanos(x) }
	us := func(x float64) sim.Time { return sim.FromNanos(1000 * x) }
	return &Params{
		Host: HostParams{
			CoreGHz:            2.2,
			IssueGap:           ns(1.4),
			StoreIssueGap:      ns(1.5),
			LocalLookup:        ns(8),
			L1Hit:              ns(1.1),
			L2Hit:              ns(3.6),
			LLCHit:             ns(21),
			LLCHitRemoteDevice: ns(50),
			LoadCredits:        10,
			NTLoadCredits:      8,
			WCBuffers:          10,
			NTStoreEgressGap:   ns(5),
			CLFlush:            ns(60),
			CLDemote:           ns(25),
			DSASetup:           ns(350),
			DSAStartup:         ns(900),
			DSABytesPerSec:     36e9,
			MemChannels:        8,
		},
		UPI: UPIParams{
			OneWay:           ns(40),
			BytesPerSec:      45e9,
			RemoteLLCRead:    ns(20),
			RemoteDRAMRead:   ns(120),
			NTLoadExtraHit:   ns(37),
			NTLoadExtraMiss:  ns(30),
			StoreGrantHit:    ns(15),
			StoreGrantMiss:   ns(70),
			NTStoreFlushHit:  ns(20),
			NTStoreFlushMiss: ns(45),
			ReadCredits:      6,
			StoreCredits:     16,
		},
		CXL: CXLParams{
			OneWay:          ns(75),
			BytesPerSec:     64e9,
			HomeBase:        ns(8),
			HostLLCRead:     ns(20),
			HostDRAMRead:    ns(65),
			CSReadExtraHit:  ns(13),
			CSReadExtraMiss: ns(5),
			NCReadExtraHit:  ns(2),
			NCReadExtraMiss: ns(2),
			NCWriteHostHit:  ns(12),
			NCWriteHostMiss: ns(51),
			COWriteHostHit:  ns(58),
			COWriteHostMiss: ns(145),
			NCPHostCost:     ns(30),
			D2HReadCredits:  64,
			H2DLoadCredits:  6,
			H2DStoreCredits: 8,
			BiasCheck:       ns(100),
			BiasFlipH2D:     ns(250),
			MemProc:         ns(50),
		},
		Device: DeviceParams{
			FabricGHz:             0.4,
			LSUIssue:              ns(5),
			LSUIssueGap:           ns(2.5),
			DCOHLookup:            ns(15),
			D2DReadCredits:        8,
			HostBiasWriteGap:      ns(2.8),
			LSUTransferSetup:      ns(150),
			HMCRead:               ns(35),
			HMCWrite:              ns(30),
			DMCRead:               ns(35),
			DMCWrite:              ns(46),
			DevMemCtrl:            ns(60),
			DMCCheckH2D:           ns(18),
			OwnedTransition:       ns(42),
			ModifiedWriteback:     ns(145),
			CompressBytesPerSec:   4096 / 2.9e-6, // 2.9 µs per 4 KB page (Table IV)
			DecompressBytesPerSec: 4096 / 1.5e-6,
			CompressStartup:       ns(180),
			HashBytesPerSec:       4096 / 0.5e-6,
			CompareBytesPerSec:    4096 / 0.45e-6,
			DoorbellPollGap:       ns(100),
		},
		DRAM: DRAMParams{
			DDR5Read:              ns(65),
			DDR5Write:             ns(55),
			DDR4Read:              ns(120),
			DDR4Write:             ns(100),
			WriteQueueEntries:     32,
			WriteDrainPerLine:     ns(64),
			DDR4WriteDrainPerLine: ns(5),
			ChannelBytesPerSec:    38.4e9,
		},
		PCIe: PCIeParams{
			MMIOReadRT:      ns(1050),
			MMIOWriteOneWay: ns(620),
			DMASetup:        ns(400),
			DMAEngine:       ns(900),
			DMABytesPerSec:  36e9,
			DMACompletion:   ns(250),
			RDMAPost:        ns(300),
			RDMANIC:         ns(2000),
			RDMABytesPerSec: 60e9,
			RDMAArmOverhead: us(1.45),
			DOCASetup:       ns(900),
			DOCAEngine:      ns(4500),
			DOCABytesPerSec: 26e9,
			InterruptCost:   us(1.8),
			DMAStackCost:    us(1.9),
		},
		SW: SoftwareParams{
			HostCompress4K:     us(6.5),
			HostDecompress4K:   us(3.0),
			ArmCompress4K:      us(5.5),
			ArmDecompress4K:    us(2.5),
			HostHash4K:         us(1.2),
			HostCompare4K:      us(1.0),
			ArmHash4K:          us(2.2),
			ArmCompare4K:       us(1.9),
			KswapdControlPlane: us(2.6),
			KsmControlPlane:    us(0.35),
			PageFaultBase:      us(1.1),
		},
	}
}

// Validate reports a descriptive error string for the first inconsistency it
// finds, or "" if the parameters are usable.
func (p *Params) Validate() string {
	switch {
	case p.Host.CoreGHz <= 0 || p.Device.FabricGHz <= 0:
		return "timing: clock frequencies must be positive"
	case p.Host.LoadCredits <= 0 || p.Host.NTLoadCredits <= 0 || p.Host.WCBuffers <= 0:
		return "timing: host credit pools must be positive"
	case p.UPI.ReadCredits <= 0 || p.CXL.D2HReadCredits <= 0:
		return "timing: interconnect credit pools must be positive"
	case p.UPI.BytesPerSec <= 0 || p.CXL.BytesPerSec <= 0:
		return "timing: link bandwidths must be positive"
	case p.DRAM.WriteQueueEntries <= 0 || p.DRAM.WriteDrainPerLine <= 0:
		return "timing: write-queue parameters must be positive"
	case p.Device.CompressBytesPerSec <= 0 || p.Device.DecompressBytesPerSec <= 0:
		return "timing: device IP rates must be positive"
	case p.Host.MemChannels <= 0:
		return "timing: MemChannels must be positive"
	}
	return ""
}

// FabricCycle returns the device fabric clock period.
func (p *Params) FabricCycle() sim.Time {
	return sim.FromNanos(1 / p.Device.FabricGHz)
}

// Serialize returns the wire occupancy of n payload bytes on a link of rate
// bytesPerSec.
func Serialize(n int, bytesPerSec float64) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.FromNanos(float64(n) / bytesPerSec * 1e9)
}

// Streaming returns the processing time of n bytes through an engine of the
// given rate (compression IP, DSA, DMA engine).
func Streaming(n int, bytesPerSec float64) sim.Time {
	return Serialize(n, bytesPerSec)
}
