package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/host"
	"repro/internal/kernel"
	"repro/internal/ksm"
	"repro/internal/kvs"
	"repro/internal/lzc"
	"repro/internal/offload"
	"repro/internal/phys"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workload"
	"repro/internal/ycsb"
	"repro/internal/zswap"
)

// Fig8Variant selects the kernel-feature configuration of one run.
// -1 is the no-feature baseline; otherwise it is an offload.Variant.
type Fig8Variant int

// Baseline marks the "Redis running alone" configuration.
const Baseline Fig8Variant = -1

// String names the configuration with the paper's prefixes.
func (v Fig8Variant) String() string {
	if v == Baseline {
		return "no"
	}
	return offload.Variant(v).String()
}

// Fig8Variants lists baseline + the four backends in the paper's order.
func Fig8Variants() []Fig8Variant {
	return []Fig8Variant{Baseline, Fig8Variant(offload.CPU), Fig8Variant(offload.PCIeRDMA),
		Fig8Variant(offload.PCIeDMA), Fig8Variant(offload.CXL)}
}

// Fig8Row is one bar of Fig. 8.
type Fig8Row struct {
	Feature  string // "zswap" or "ksm"
	Variant  Fig8Variant
	Workload ycsb.Workload
	// P99us is the measured 99th-percentile latency in microseconds;
	// NormP99 is P99 normalized to the same-workload baseline. P50us and
	// P999us bracket the tail.
	P50us   float64
	P99us   float64
	P999us  float64
	NormP99 float64
	Served  uint64
	Faults  uint64
	// FeatureCPUPct is the share of the observed cores' cycles consumed by
	// the kernel feature (the §VII host-CPU-cycle metric).
	FeatureCPUPct float64
	// PollutedLines is the feature's cumulative LLC displacement.
	PollutedLines uint64
	// VerifyOK is the end-to-end data-integrity check.
	VerifyOK bool
}

// fig8Rate is the calibrated aggregate request rate over all servers.
const fig8Rate = 60_000

// Fig8Config shapes the co-simulation; zero values take calibrated
// defaults. The seed is not a knob here: Fig8Jobs derives one per
// (feature, workload) group, and a direct Fig8Zswap/Fig8Ksm call passes
// its own.
type Fig8Config struct {
	Duration sim.Time
	// Zipfian switches the key distribution from the paper's uniform to
	// YCSB's zipfian chooser — an extension beyond the paper: skew keeps
	// the hot set resident, so reclaim falls on cold pages and tails
	// tighten.
	Zipfian bool
	// KswapdBatch overrides kswapd's scheduling quantum in pages (0 takes
	// the calibrated default of 8) — the cond_resched-granularity ablation.
	KswapdBatch int
}

func (c Fig8Config) dist() ycsb.Distribution {
	if c.Zipfian {
		return ycsb.Zipfian
	}
	return ycsb.Uniform
}

func (c *Fig8Config) setDefaults() {
	if c.Duration == 0 {
		c.Duration = 300 * sim.Millisecond
	}
}

const fig8FrameBase = phys.Addr(0x2000_0000)

// fig8Records sizes every server's dataset: 500 pages per server, so the
// hot set stays mostly resident.
const fig8Records = 8000

// Fig8Diag carries extra observability for scenario tuning and the §VII
// cycle/LLC analyses.
type Fig8Diag struct {
	P99Core0, P99Core1    float64
	FaultP99, NoFaultP99  float64
	KswapdBusyPct         float64
	SwapOuts, MajorFaults uint64
	Writebacks            uint64
	BackingLoads          uint64
	// EngineEvents is the discrete-event engine's dispatch count for the
	// run — the parallel runner's sim-event-rate stat.
	EngineEvents uint64
}

// fig8Bed is one §VII co-simulation: the half-system host (SNC mode: 16
// cores, 4 memory channels) with its offload platform, an MM over the
// scenario's page frames, and the Redis servers the load generator
// drives. A reduced LLC keeps the model light; cache pressure is
// represented through the pollution channel.
type fig8Bed struct {
	cfg     Fig8Config
	seed    int64
	eng     *sim.Engine
	h       *host.Host
	pl      *offload.Platform
	mm      *kernel.MM
	loader  *sim.Proc
	servers []*kvs.Server
}

// newFig8Bed builds the bed with totalPages of managed RAM; seed roots
// every random stream of the run.
func newFig8Bed(cfg Fig8Config, seed int64, totalPages int) *fig8Bed {
	cfg.setDefaults()
	h := host.MustNew(timing.Default(), host.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 16, SNC: true})
	if _, err := h.Attach(cxl.Type2); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	return &fig8Bed{
		cfg:    cfg,
		seed:   seed,
		eng:    eng,
		h:      h,
		pl:     offload.NewPlatform(h),
		mm:     kernel.NewMM(h.Params(), h.Store(), fig8FrameBase, totalPages),
		loader: sim.NewProc(eng, "loader", nil),
	}
}

// core returns core i's scheduler.
func (b *fig8Bed) core(i int) *sim.Resource { return b.h.Core(i).Sched }

// startServers builds n servers of fig8Records records each, server i on
// core i in address space i+1, and loads their datasets.
func (b *fig8Bed) startServers(n int, scfg kvs.Config, pollution func() uint64) {
	scfg.Records = fig8Records
	for i := 0; i < n; i++ {
		srv, err := kvs.NewServer(b.eng, scfg, b.core(i), b.mm.NewAddressSpace(i+1), pollution)
		if err != nil {
			panic(err)
		}
		if err := srv.LoadDataset(b.loader); err != nil {
			panic(err)
		}
		b.servers = append(b.servers, srv)
	}
}

// serve drives the servers with the YCSB load for cfg.Duration and fills
// the row and diagnostics fields every scenario shares. Requests complete
// synchronously within their arrival event, so the horizon is exact; the
// daemons (kswapd, ksmd, the antagonist, the churn) would reschedule
// forever and are simply cut off at the horizon.
func (b *fig8Bed) serve(feature string, v Fig8Variant, w ycsb.Workload) (Fig8Row, Fig8Diag) {
	gen := ycsb.MustNewGenerator(w, b.cfg.dist(), fig8Records, b.seed)
	lg := kvs.NewLoadGen(b.eng, b.servers, gen, workload.Poisson{RatePerSec: fig8Rate}, b.seed+seedOffFig8LoadGen)
	lg.Start()
	b.eng.RunUntil(b.cfg.Duration)
	lg.Stop()

	row := Fig8Row{Feature: feature, Variant: v, Workload: w, VerifyOK: true}
	for _, s := range b.servers {
		row.Served += s.Served()
		row.Faults += s.Faults()
		row.VerifyOK = row.VerifyOK && s.VerifyOK()
	}
	all := b.merged((*kvs.Server).Latencies)
	row.P50us, row.P99us, row.P999us = all.Median(), all.P99(), all.Quantile(0.999)
	return row, Fig8Diag{
		P99Core0:      b.servers[0].P99(),
		P99Core1:      b.servers[1].P99(),
		KswapdBusyPct: 100 * float64(b.core(0).Busy()) / float64(b.cfg.Duration),
		EngineEvents:  b.eng.Executed(),
	}
}

// merged pools one per-server latency sample over the fleet.
func (b *fig8Bed) merged(sample func(*kvs.Server) *stats.Sample) *stats.Sample {
	all := stats.NewSample(4096)
	for _, s := range b.servers {
		for _, x := range sample(s).Values() {
			all.Add(x)
		}
	}
	return all
}

// Fig8Zswap runs the zswap scenario: 2 Redis servers + kswapd sharing a
// core + a memory antagonist, under one backend variant (§VII methodology).
// seed roots the key, arrival, antagonist and page streams.
func Fig8Zswap(v Fig8Variant, w ycsb.Workload, cfg Fig8Config, seed int64) (Fig8Row, Fig8Diag) {
	// Memory sizing: with the feature active the working sets exceed RAM so
	// reclaim runs continuously; the baseline ("Redis running alone") has
	// headroom.
	totalPages := 2350
	if v == Baseline {
		totalPages = 8000
	}
	b := newFig8Bed(cfg, seed, totalPages)
	backing := kernel.NewBackingSwap(18*sim.Microsecond, 22*sim.Microsecond)
	var z *zswap.Zswap
	if v == Baseline {
		b.mm.SetSwap(backing)
	} else {
		z = zswap.MustNew(zswap.Config{MaxPoolPercent: 20, TotalRAMPages: totalPages, PoolPages: 1024},
			offload.NewZswapBackend(offload.Variant(v), b.pl), backing)
		b.mm.SetSwap(z)
	}

	// kswapd shares core 0 with the first Redis server — kernel threads
	// float onto application cores.
	kswapd := kernel.NewKswapd(b.eng, b.mm, b.core(0))
	kswapd.BatchSize = 8
	if b.cfg.KswapdBatch > 0 {
		kswapd.BatchSize = b.cfg.KswapdBatch
	}

	// The antagonist churns memory on core 2, keeping kswapd busy; its page
	// streams also displace LLC lines, which every non-baseline
	// configuration suffers ("Redis running alone" is the clean baseline).
	var ant *kvs.Antagonist
	pollution := func() uint64 { return 0 }
	if z != nil {
		ant = kvs.NewAntagonist(b.eng, b.mm.NewAddressSpace(99), b.core(2), b.seed+seedOffFig8Antagonist)
		ant.PagesPerBurst = 8
		ant.Interval = 500 * sim.Microsecond
		ant.Keep = 1800 // a large cold tail: reclaim victims are mostly the antagonist's
		pollution = func() uint64 { return z.Stats().PollutedLines + ant.PollutedLines() }
	}

	// Two Redis servers on cores 0 and 1 (the paper runs 2 servers + 6
	// clients on 8 cores; clients are the load generator here).
	b.startServers(2, kvs.DefaultConfig(), pollution)
	if ant != nil {
		ant.Start()
	}
	row, diag := b.serve("zswap", v, w)

	mst := b.mm.Stats()
	diag.SwapOuts, diag.MajorFaults = mst.SwapOuts, mst.MajorFaults
	if s := b.merged((*kvs.Server).FaultLatencies); s.N() > 0 {
		diag.FaultP99 = s.P99()
	}
	if s := b.merged((*kvs.Server).CleanLatencies); s.N() > 0 {
		diag.NoFaultP99 = s.P99()
	}
	if z != nil {
		st := z.Stats()
		row.PollutedLines = st.PollutedLines
		// Feature CPU: zswap data plane + reclaim/fault control plane,
		// over the three cores the feature touches.
		sw := b.h.Params().SW
		ctl := sim.Time(mst.SwapOuts)*sw.KswapdControlPlane + sim.Time(mst.MajorFaults)*sw.PageFaultBase
		row.FeatureCPUPct = 100 * float64(st.HostCPU+ctl) / float64(3*b.cfg.Duration)
		diag.Writebacks, diag.BackingLoads = st.Writebacks, st.BackingLoads
	}
	return row, diag
}

// Fig8Ksm runs the ksm scenario: 16 VMs (4 serving Redis), ksmd sharing a
// serving core, scanning mergeable VM pages (§VII methodology). seed roots
// the key, arrival and page streams.
func Fig8Ksm(v Fig8Variant, w ycsb.Workload, cfg Fig8Config, seed int64) (Fig8Row, Fig8Diag) {
	b := newFig8Bed(cfg, seed, 16000)
	b.mm.SetSwap(kernel.NewBackingSwap(18*sim.Microsecond, 22*sim.Microsecond))

	var scanner *ksm.Scanner
	pollution := func() uint64 { return 0 }
	if v != Baseline {
		scanner = ksm.NewScanner(b.mm, offload.NewKsmBackend(offload.Variant(v), b.pl))
		pollution = func() uint64 { return scanner.Stats().Polluted }
	}

	// 12 client VMs hold mergeable pages: a shared set of template pages
	// (OS image / common libraries) plus private pages.
	rng := rng.New(b.seed + seedOffFig8Pages)
	templates := make([][]byte, 64)
	for i := range templates {
		templates[i] = lzc.SyntheticPage(rng, phys.PageSize, 0.5)
	}
	clientVMs := make([]*kernel.AddressSpace, 12)
	for i := range clientVMs {
		as := b.mm.NewAddressSpace(100 + i)
		for vpn := uint64(0); vpn < 160; vpn++ {
			var page []byte
			if vpn%2 == 0 {
				page = templates[int(vpn/2)%len(templates)] // duplicate across VMs
			} else {
				page = lzc.SyntheticPage(rng, phys.PageSize, 0.5) // private
			}
			if err := as.Map(vpn, page, b.loader); err != nil {
				panic(err)
			}
		}
		if scanner != nil {
			scanner.RegisterRange(as, 0, 160)
		}
		clientVMs[i] = as
	}

	// 4 Redis server VMs pinned to cores 0–3; ksmd shares core 0. ksm
	// displaces far fewer lines per op than zswap's page streams; the
	// refill penalty is correspondingly lighter.
	scfg := kvs.DefaultConfig()
	scfg.PollutionPenaltyPerLine = 15 * sim.Nanosecond
	scfg.PollutionCap = 2500 * sim.Nanosecond
	b.startServers(4, scfg, pollution)

	var daemon *ksm.Daemon
	if scanner != nil {
		daemon = ksm.NewDaemon(b.eng, scanner, b.core(0))
		daemon.PagesPerBatch = 110
		daemon.SleepBetween = 2200 * sim.Microsecond
		// ksmd floats: over the run it lands on every serving core.
		daemon.FloatCores = []*sim.Resource{b.core(0), b.core(1), b.core(2), b.core(3)}
		daemon.Start()
	}

	// Client VMs churn a little so ksmd always has work (checksum changes,
	// CoW breaks).
	churn := sim.NewProc(b.eng, "churn", b.core(4))
	var churnStep func(pr *sim.Proc)
	churnStep = func(pr *sim.Proc) {
		vm := clientVMs[rng.Intn(len(clientVMs))]
		vpn := uint64(rng.Intn(160))
		vm.Write(vpn, lzc.SyntheticPage(rng, phys.PageSize, 0.5), pr)
		pr.Sleep(2 * sim.Millisecond)
		pr.Schedule(churnStep)
	}
	churn.Schedule(churnStep)

	row, diag := b.serve("ksm", v, w)
	if scanner != nil {
		st := scanner.Stats()
		row.PollutedLines = st.Polluted
		ctl := sim.Time(st.PagesScanned) * b.h.Params().SW.KsmControlPlane
		row.FeatureCPUPct = 100 * float64(st.HostCPU+ctl) / float64(5*b.cfg.Duration)
		diag.SwapOuts = st.PagesScanned
		diag.Writebacks = st.PagesMerged + st.NewStable
		diag.BackingLoads = uint64(daemon.Batches())
	}
	return row, diag
}

// Fig8Jobs returns one job per co-simulation, ID
// "fig8/<feature>/<workload>/<variant>": within each workload the
// baseline comes first, then the four backends in the paper's order. Every
// job of one (feature, workload) group runs under
// rng.DeriveSeed(root, "fig8/<feature>/<workload>"), so the baseline and
// the four backends see the same key, arrival and page streams (common
// random numbers) and each normalized p99 is a paired ratio.
func Fig8Jobs(feature string, workloads []ycsb.Workload, cfg Fig8Config) []runner.Job {
	if len(workloads) == 0 {
		workloads = ycsb.Workloads()
	}
	run := Fig8Zswap
	if feature == "ksm" {
		run = Fig8Ksm
	}
	var jobs []runner.Job
	for _, w := range workloads {
		group := fmt.Sprintf("fig8/%s/%s", feature, w)
		for _, v := range Fig8Variants() {
			jobs = append(jobs, runner.Job{ID: group + "/" + v.String(), Run: func(ctx *runner.Ctx) (any, error) {
				row, diag := run(v, w, cfg, sectionSeed(ctx, group))
				ctx.AddEvents(diag.EngineEvents)
				return []Fig8Row{row}, nil
			}})
		}
	}
	return jobs
}

// Fig8Rows assembles job results (in Fig8Jobs order) into rows, filling
// in the baseline-normalized p99: within each workload the baseline job
// precedes its variants, so normalization is a single pass.
func Fig8Rows(results []runner.Result) []Fig8Row {
	rows := Rows[Fig8Row](results)
	var baseP99 float64
	for i := range rows {
		if rows[i].Variant == Baseline {
			baseP99 = rows[i].P99us
			rows[i].NormP99 = 1
			continue
		}
		rows[i].NormP99 = rows[i].P99us / baseP99
	}
	return rows
}

// PrintFig8 renders the rows like the paper's figure.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Feature, r.Variant.String() + "-" + r.Feature, r.Workload.String(),
			fmtCell(r.P50us), fmtCell(r.P99us), fmtCell(r.P999us),
			fmt.Sprintf("%.2fx", r.NormP99),
			fmt.Sprintf("%d", r.Served), fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%.1f%%", r.FeatureCPUPct),
		})
	}
	printTable(w, "Fig. 8 — Redis p99 latency under kernel-feature variants (normalized to no-*)",
		[]string{"feature", "config", "wkld", "p50(us)", "p99(us)", "p99.9(us)", "norm", "served", "faults", "featCPU"}, table)
}

// fig8Find locates a row.
func fig8Find(rows []Fig8Row, feature string, v Fig8Variant, w ycsb.Workload) Fig8Row {
	for _, r := range rows {
		if r.Feature == feature && r.Variant == v && r.Workload == w {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no Fig8 row %s/%v/%v", feature, v, w))
}
