// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment per iteration and reports the
// headline metric as custom units, so `go test -bench` output doubles as a
// compact reproduction report.
package cxl2sim_test

import (
	"testing"

	cxl2sim "repro"
	"repro/internal/cxl"
	devicepkg "repro/internal/device"
	"repro/internal/experiments"
	hostpkg "repro/internal/host"
	"repro/internal/infer"
	"repro/internal/infer/cluster"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// benchReps keeps per-iteration work bounded; the model is deterministic.
const benchReps = 200

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runRows[experiments.Table3Row](experiments.Table3Jobs())
		if len(rows) != 18 {
			b.Fatal("Table III incomplete")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.Fig3Row](experiments.Fig3Jobs(experiments.Fig3Config{Reps: benchReps}))
	}
	cs := experiments.Fig3Find(rows, "CS-rd", true, true)
	ld := experiments.Fig3Find(rows, "ld", false, true)
	b.ReportMetric(cs.LatencyNs, "CS-rd-LLC1-ns")
	b.ReportMetric(100*(cs.LatencyNs-ld.LatencyNs)/ld.LatencyNs, "vs-ld-%")
}

// BenchmarkInfer runs one serving simulation — Poisson arrivals,
// continuous batching, paged KV cache on Type-2 device-bias memory — and
// reports the serving-quality metrics alongside ns/op, so the perf gate
// covers the inference path end to end.
func BenchmarkInfer(b *testing.B) {
	var m infer.Metrics
	for i := 0; i < b.N; i++ {
		m = infer.Run(infer.Config{
			Seed:   7,
			Far:    infer.TierT2Dev,
			Policy: infer.StaticSplit{},
		})
	}
	b.ReportMetric(m.TPOT.Mean()*1000, "TPOT-ns")
	b.ReportMetric(m.Goodput/1000, "goodput-ktoks")
}

// BenchmarkCluster runs one 4-replica cluster serving simulation — the
// replicas draw KV blocks from a shared Type-3 pool behind one switch,
// with local blocks oversubscribed so the fabric actually contends — and
// reports fleet serving quality plus switch arbitration wait, extending
// the perf gate over the fabric + cluster path.
func BenchmarkCluster(b *testing.B) {
	var m cluster.Metrics
	for i := 0; i < b.N; i++ {
		m = cluster.Run(cluster.Config{
			Seed:         7,
			Replicas:     4,
			Requests:     48,
			RatePerSec:   400_000,
			LocalBlocks:  4,
			SharedBlocks: 24,
			Router:       cluster.NewRoundRobin(), // routers are single-use
		})
	}
	b.ReportMetric(m.TPOT.Mean()*1000, "TPOT-ns")
	b.ReportMetric(m.Goodput/1000, "goodput-ktoks")
	b.ReportMetric(float64(m.SwitchWaited().Microseconds()), "sw-wait-us")
}

// BenchmarkClusterScale is the cluster model at 32 replicas sharing two
// expanders: 33 shards, so the per-window cost of the PDES loop (one
// activation and one bound per shard) weighs the way it does at fleet
// scale, which BenchmarkCluster's five shards never show.
func BenchmarkClusterScale(b *testing.B) {
	var m cluster.Metrics
	for i := 0; i < b.N; i++ {
		m = cluster.Run(cluster.Config{
			Seed:         7,
			Replicas:     32,
			Expanders:    2,
			Requests:     768,
			RatePerSec:   400_000,
			LocalBlocks:  8,
			SharedBlocks: 256,
			Router:       cluster.NewRoundRobin(), // routers are single-use
		})
	}
	b.ReportMetric(m.TPOT.Mean()*1000, "TPOT-ns")
	b.ReportMetric(m.Goodput/1000, "goodput-ktoks")
	b.ReportMetric(float64(m.SwitchWaited().Microseconds()), "sw-wait-us")
}

// BenchmarkWorkload runs the workload section at cxlbench's -reps 1000
// scale on one worker: three recorded arrival streams, the trace replay
// round trip and 8192 cohort-shaped draws, so the perf gate covers the
// traffic library as the suite exercises it.
func BenchmarkWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runRows[experiments.WorkloadRow](experiments.WorkloadJobs(experiments.WorkloadConfig{Reps: 1000}))
		if len(rows) != 7 {
			b.Fatalf("workload section has %d rows, want 7", len(rows))
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	var rows []experiments.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.Fig4Row](experiments.Fig4Jobs(experiments.Fig4Config{Reps: benchReps}))
	}
	hb := experiments.Fig4Find(rows, "CO-wr", false, true, false)
	db := experiments.Fig4Find(rows, "CO-wr", false, true, true)
	b.ReportMetric(100*(hb.LatencyNs-db.LatencyNs)/hb.LatencyNs, "devbias-lower-%")
}

func BenchmarkFig5(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.Fig5Row](experiments.Fig5Jobs(experiments.Fig5Config{Reps: benchReps}))
	}
	t2 := experiments.Fig5Find(rows, cxl.Ld, experiments.CaseT2Miss)
	t3 := experiments.Fig5Find(rows, cxl.Ld, experiments.CaseT3)
	b.ReportMetric(t2.LatencyNs, "T2-ld-ns")
	b.ReportMetric(100*(t2.LatencyNs-t3.LatencyNs)/t3.LatencyNs, "vs-T3-%")
}

func BenchmarkFig6(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.Fig6Row](experiments.Fig6Jobs())
	}
	st := experiments.Fig6Find(rows, experiments.MechCXLSt, false, 256)
	mmio := experiments.Fig6Find(rows, experiments.MechPCIeMMIO, false, 256)
	b.ReportMetric(st.LatencyNs, "CXL-ST-256B-ns")
	b.ReportMetric(100*(mmio.LatencyNs-st.LatencyNs)/mmio.LatencyNs, "vs-MMIO-lower-%")
}

func BenchmarkTable4(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.Table4Row](experiments.Table4Jobs())
	}
	b.ReportMetric(experiments.Table4Find(rows, "cxl-zswap").Total, "cxl-total-us")
	b.ReportMetric(experiments.Table4Find(rows, "pcie-rdma-zswap").Total, "rdma-total-us")
	b.ReportMetric(experiments.Table4Find(rows, "pcie-dma-zswap").Total, "dma-total-us")
}

func BenchmarkWriteQueueCrossover(b *testing.B) {
	var rows []experiments.WriteQueueRow
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.WriteQueueRow](experiments.WriteQueueSweepJobs([]int{16, 64, 1024}))
	}
	b.ReportMetric(experiments.FindWriteQueueRow(rows, "CO-wr", 64).BWGBs, "CO-wr-N64-GBs")
	b.ReportMetric(experiments.FindWriteQueueRow(rows, "st", 64).BWGBs, "st-N64-GBs")
}

// fig8Bench runs a reduced-horizon Fig. 8 scenario and reports the
// normalized p99 for one variant.
func fig8Bench(b *testing.B, feature string, v experiments.Fig8Variant) {
	b.Helper()
	cfg := experiments.Fig8Config{Duration: 120 * sim.Millisecond}
	run := experiments.Fig8Zswap
	if feature == "ksm" {
		run = experiments.Fig8Ksm
		// ksm's tail statistics need the full horizon: the scan quantum is
		// milliseconds-scale, so a short run under-samples the bursts.
		cfg.Duration = 300 * sim.Millisecond
	}
	var norm float64
	for i := 0; i < b.N; i++ {
		base := run(experiments.Baseline, ycsb.A, cfg)
		row := run(v, ycsb.A, cfg)
		if !row.VerifyOK {
			b.Fatal("data integrity lost")
		}
		norm = row.P99us / base.P99us
	}
	b.ReportMetric(norm, "p99-vs-baseline-x")
}

func BenchmarkFig8ZswapCPU(b *testing.B)  { fig8Bench(b, "zswap", experiments.Fig8Variant(0)) }
func BenchmarkFig8ZswapRDMA(b *testing.B) { fig8Bench(b, "zswap", experiments.Fig8Variant(1)) }
func BenchmarkFig8ZswapDMA(b *testing.B)  { fig8Bench(b, "zswap", experiments.Fig8Variant(2)) }
func BenchmarkFig8ZswapCXL(b *testing.B)  { fig8Bench(b, "zswap", experiments.Fig8Variant(3)) }
func BenchmarkFig8KsmCPU(b *testing.B)    { fig8Bench(b, "ksm", experiments.Fig8Variant(0)) }
func BenchmarkFig8KsmCXL(b *testing.B)    { fig8Bench(b, "ksm", experiments.Fig8Variant(3)) }

// BenchmarkSliceScaling measures the §V-A projection: aggregate D2H read
// bandwidth with 1/2/4 DCOH slices, saturating near the link payload rate.
func BenchmarkSliceScaling(b *testing.B) {
	var bw1, bw4 float64
	for i := 0; i < b.N; i++ {
		bw1 = sliceBandwidth(1)
		bw4 = sliceBandwidth(4)
	}
	b.ReportMetric(bw1, "1-slice-GBs")
	b.ReportMetric(bw4, "4-slice-GBs")
}

func sliceBandwidth(n int) float64 {
	p := cxl2sim.DefaultParams()
	h := hostpkg.MustNew(p, hostpkg.Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 2})
	a, err := devicepkg.NewSliceArray(p, devicepkg.DefaultConfig(), h.Home(), h.CXLLink, n)
	if err != nil {
		panic(err)
	}
	return a.ReadHostBandwidth(cxl.NCRead, 0x100000, 4096, 0)
}

// ---------- ablations (DESIGN.md §4) ----------

// BenchmarkAblationNCP: Insight 4 — H2D load latency with and without the
// device pre-pushing the line via NC-P.
func BenchmarkAblationNCP(b *testing.B) {
	sys := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
	line := make([]byte, cxl2sim.LineSize)
	var with, without cxl2sim.Time
	for i := 0; i < b.N; i++ {
		addr := cxl2sim.DeviceMemoryBase + cxl2sim.Addr((i%1024)*cxl2sim.PageSize)
		// High-b.N iterations revisit addresses: make the cold case cold.
		sys.Host.LLC().Invalidate(addr)
		sys.ResetTiming()
		without = sys.H2D(0, cxl2sim.Ld, addr, nil, 0).Done
		sys.ResetTiming()
		sys.D2H(cxl2sim.NCP, addr+64, line, 0)
		with = sys.H2D(0, cxl2sim.Ld, addr+64, nil, 0).Done
	}
	b.ReportMetric(without.Nanoseconds(), "cold-ld-ns")
	b.ReportMetric(with.Nanoseconds(), "pushed-ld-ns")
}

// BenchmarkAblationBias: a zswap-style D2D write stream in host- vs
// device-bias mode (the zpool placement write path).
func BenchmarkAblationBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sysHB := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
		sysDB := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
		base := cxl2sim.DeviceMemoryBase + 0x100000
		sysDB.EnterDeviceBias(base, 1<<20, 0)
		var hb, db cxl2sim.Time
		for off := 0; off < 4096; off += cxl2sim.LineSize {
			a := base + cxl2sim.Addr(off)
			if r := sysHB.D2D(cxl2sim.NCWrite, a, nil, 0); r.Done > hb {
				hb = r.Done
			}
			if r := sysDB.D2D(cxl2sim.NCWrite, a, nil, 0); r.Done > db {
				db = r.Done
			}
		}
		b.ReportMetric(hb.Microseconds(), "hostbias-4K-us")
		b.ReportMetric(db.Microseconds(), "devbias-4K-us")
	}
}

// BenchmarkAblationPipeline: Table IV's cxl row depends on overlapping the
// D2H pull, the compression IP and the zpool store. Compare the pipelined
// total against the sum of the unpipelined stages.
func BenchmarkAblationPipeline(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = runRows[experiments.Table4Row](experiments.Table4Jobs())
	}
	cxlRow := experiments.Table4Find(rows, "cxl-zswap")
	dma := experiments.Table4Find(rows, "pcie-dma-zswap")
	sequential := dma.TransferIn + dma.Compute + dma.StoreOut // same IP, unpipelined
	b.ReportMetric(cxlRow.Total, "pipelined-us")
	b.ReportMetric(sequential, "sequential-us")
}

// BenchmarkAblationZpoolPlacement: storing the compressed page into a
// device-memory zpool (D2D NC-wr, stays local) versus shipping it back to
// a host-memory zpool (D2H NC-wr, crosses the CXL link and consumes host
// DRAM) — the §VI-A capability only a Type-2 device offers cleanly. The
// key saving is interconnect traffic and host-memory footprint, not raw
// store latency.
func BenchmarkAblationZpoolPlacement(b *testing.B) {
	const compressedBytes = 2048
	var dev, hostT cxl2sim.Time
	var devLink, hostLink uint64
	for i := 0; i < b.N; i++ {
		sysD := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
		dev = sysD.Dev.WriteDevBlock(cxl.NCWrite, cxl2sim.DeviceMemoryBase+0x200000, nil, compressedBytes, 0)
		devLink = sysD.Host.CXLLink.Transferred(0) + sysD.Host.CXLLink.Transferred(1)
		sysH := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
		hostT = sysH.Dev.WriteHostBlock(cxl.NCWrite, 0x40000, nil, compressedBytes, 0)
		hostLink = sysH.Host.CXLLink.Transferred(0) + sysH.Host.CXLLink.Transferred(1)
	}
	b.ReportMetric(dev.Nanoseconds(), "devmem-zpool-ns")
	b.ReportMetric(hostT.Nanoseconds(), "hostmem-zpool-ns")
	b.ReportMetric(float64(devLink), "devmem-link-bytes")
	b.ReportMetric(float64(hostLink), "hostmem-link-bytes")
}

// BenchmarkAblationASICFabric: §V-B projects that replacing the 400 MHz
// FPGA with an ASIC-class fabric would bring D2D DMC-hit latency down to
// the emulated (host L1) level. Raise the fabric clock 5.5× and compare.
func BenchmarkAblationASICFabric(b *testing.B) {
	var fpga, asic cxl2sim.Time
	for i := 0; i < b.N; i++ {
		fpga = d2dHitLatency(cxl2sim.DefaultParams())
		p := cxl2sim.DefaultParams()
		// ASIC-class fabric: host-frequency clock shrinks every
		// fabric-cycle-derived latency proportionally.
		scale := p.Device.FabricGHz / p.Host.CoreGHz
		p.Device.FabricGHz = p.Host.CoreGHz
		p.Device.LSUIssue = cxl2sim.Time(float64(p.Device.LSUIssue) * scale)
		p.Device.LSUIssueGap = cxl2sim.Time(float64(p.Device.LSUIssueGap) * scale)
		p.Device.DCOHLookup = cxl2sim.Time(float64(p.Device.DCOHLookup) * scale)
		p.Device.DMCRead = cxl2sim.Time(float64(p.Device.DMCRead) * scale)
		p.Device.DMCWrite = cxl2sim.Time(float64(p.Device.DMCWrite) * scale)
		asic = d2dHitLatency(p)
	}
	b.ReportMetric(fpga.Nanoseconds(), "fpga-DMChit-ns")
	b.ReportMetric(asic.Nanoseconds(), "asic-DMChit-ns")
}

func d2dHitLatency(p *cxl2sim.Params) cxl2sim.Time {
	sys := cxl2sim.MustNewSystem(cxl2sim.Config{Params: p, LLCBytes: 1 << 20, LLCWays: 16, Cores: 2})
	addr := cxl2sim.DeviceMemoryBase + 0x1000
	sys.D2D(cxl2sim.CSRead, addr, nil, 0) // warm DMC
	sys.ResetTiming()
	return sys.D2D(cxl2sim.CSRead, addr, nil, 0).Done
}

// BenchmarkAblationKswapdQuantum sweeps kswapd's scheduling quantum for
// cpu-zswap: larger non-preemptible reclaim slices trade reclaim
// throughput for co-runner tail latency — the mechanism behind the Fig. 8
// cpu-zswap bar.
func BenchmarkAblationKswapdQuantum(b *testing.B) {
	var norms [3]float64
	batches := [3]int{2, 8, 32}
	for i := 0; i < b.N; i++ {
		for j, batch := range batches {
			cfg := experiments.Fig8Config{Duration: 120 * sim.Millisecond, KswapdBatch: batch}
			base := experiments.Fig8Zswap(experiments.Baseline, ycsb.A, cfg)
			row := experiments.Fig8Zswap(experiments.Fig8Variant(0), ycsb.A, cfg)
			norms[j] = row.P99us / base.P99us
		}
	}
	b.ReportMetric(norms[0], "batch2-p99x")
	b.ReportMetric(norms[1], "batch8-p99x")
	b.ReportMetric(norms[2], "batch32-p99x")
}

// BenchmarkAblationDoorbell: §VI-A chooses CS-read over NC-read for the
// device's mailbox polling loop because repeated CS-reads hit the DMC when
// the mailbox is unchanged.
func BenchmarkAblationDoorbell(b *testing.B) {
	var csPoll, ncPoll cxl2sim.Time
	for i := 0; i < b.N; i++ {
		// CS-read allocates into DMC, so a steady polling loop hits the
		// cache while the mailbox is unchanged; NC-read never allocates and
		// pays device memory on every poll.
		sysCS := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
		mailbox := cxl2sim.DeviceMemoryBase + 0x1000
		sysCS.D2D(cxl.CSRead, mailbox, nil, 0) // first poll fills DMC
		sysCS.ResetTiming()
		csPoll = sysCS.D2D(cxl.CSRead, mailbox, nil, 0).Done

		sysNC := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
		sysNC.D2D(cxl.NCRead, mailbox, nil, 0)
		sysNC.ResetTiming()
		ncPoll = sysNC.D2D(cxl.NCRead, mailbox, nil, 0).Done
	}
	b.ReportMetric(csPoll.Nanoseconds(), "CS-rd-poll-ns")
	b.ReportMetric(ncPoll.Nanoseconds(), "NC-rd-poll-ns")
}

// BenchmarkAblationReadahead: swap-cluster readahead (an extension; the
// kernel's page_cluster) converts sequential major faults into swap-cache
// hits. Reported: major faults with and without clustering for the same
// sequential re-touch of a swapped range.
func BenchmarkAblationReadahead(b *testing.B) {
	var without, with uint64
	for i := 0; i < b.N; i++ {
		without = readaheadMajors(0)
		with = readaheadMajors(4)
	}
	b.ReportMetric(float64(without), "majors-no-ra")
	b.ReportMetric(float64(with), "majors-ra4")
}

func readaheadMajors(cluster int) uint64 {
	sys := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 1 << 20, LLCWays: 16, Cores: 2})
	eng := cxl2sim.NewEngine()
	st, err := sys.NewZswapStack(eng, cxl2sim.CXL, 64, 100, 0)
	if err != nil {
		panic(err)
	}
	st.MM.ReadaheadPages = cluster
	// Generous watermarks give reclaim (and prefetch) headroom.
	st.MM.LowWM, st.MM.HighWM = 4, 24
	proc := sys.NewProc(eng, "app", -1)
	as := st.MM.NewAddressSpace(1)
	page := make([]byte, cxl2sim.PageSize)
	for i := range page {
		page[i] = byte(i % 7)
	}
	for v := uint64(0); v < 48; v++ {
		if err := as.Map(v, page, proc); err != nil {
			panic(err)
		}
	}
	// A second space overcommits memory, forcing the first set out.
	other := st.MM.NewAddressSpace(2)
	for v := uint64(0); v < 40; v++ {
		other.Map(v, page, proc)
		other.Read(v, proc)
		other.Read(v, proc) // keep the churner's pages active
	}
	// Let kswapd restore the watermark headroom readahead needs.
	eng.Run()
	before := st.MM.Stats().MajorFaults
	for v := uint64(0); v < 48; v++ {
		as.Read(v, proc)
		// Keep background reclaim flowing between faults.
		if proc.Now() > eng.Now() {
			eng.Advance(proc.Now())
		}
	}
	return st.MM.Stats().MajorFaults - before
}
