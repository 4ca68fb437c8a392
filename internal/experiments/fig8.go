package experiments

import (
	"fmt"
	"io"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/kernel"
	"repro/internal/ksm"
	"repro/internal/kvs"
	"repro/internal/lzc"
	"repro/internal/mem"
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

// Fig8Config shapes the co-simulation; zero values take calibrated
// defaults.
type Fig8Config struct {
	Duration sim.Time
	Seed     int64
	// RatePerSec is the aggregate request rate over all servers.
	RatePerSec float64
	// Zipfian switches the key distribution from the paper's uniform to
	// YCSB's zipfian chooser — an extension beyond the paper: skew keeps
	// the hot set resident, so reclaim falls on cold pages and tails
	// tighten.
	Zipfian bool
	// KswapdBatch overrides kswapd's scheduling quantum in pages (0 takes
	// the calibrated default of 8) — the cond_resched-granularity ablation.
	KswapdBatch int
	// Temporal replaces the stationary drivers with the traffic library's
	// temporal models: request arrivals follow a rate curve oscillating
	// around RatePerSec with burst overlays, the zswap antagonist's churn
	// bursts arrive episodically, and ksmd's inter-batch sleeps are drawn
	// rather than fixed. Off by default — the calibrated stationary runs
	// stay bit-identical.
	Temporal bool
}

// fig8ArrivalSource builds the temporal request stream for one run: a
// four-phase curve oscillating around rate (period 100 ms, several cycles
// inside the 300 ms horizon) with thundering-herd bursts layered on top.
func fig8ArrivalSource(rate float64) workload.ArrivalSource {
	curve := workload.MustNewRateCurve(100*sim.Millisecond,
		workload.RatePoint{At: 0, RatePerSec: 0.5 * rate},
		workload.RatePoint{At: 25 * sim.Millisecond, RatePerSec: 1.5 * rate},
		workload.RatePoint{At: 50 * sim.Millisecond, RatePerSec: 0.75 * rate},
		workload.RatePoint{At: 75 * sim.Millisecond, RatePerSec: 1.25 * rate},
	)
	return workload.NewTemporal(curve).WithBursts(workload.BurstSpec{
		MeanGap:    40 * sim.Millisecond,
		MeanLen:    3 * sim.Millisecond,
		Factor:     3,
		Cooldown:   5 * sim.Millisecond,
		CoolFactor: 0.5,
	})
}

// fig8LoadGen builds the run's load generator: stationary Poisson, or the
// temporal source when cfg.Temporal is set.
func fig8LoadGen(eng *sim.Engine, servers []*kvs.Server, gen *ycsb.Generator, cfg Fig8Config) *kvs.LoadGen {
	if cfg.Temporal {
		return kvs.NewLoadGenArrivals(eng, servers, gen,
			fig8ArrivalSource(cfg.RatePerSec), cfg.Seed+seedOffFig8LoadGen)
	}
	return kvs.NewLoadGen(eng, servers, gen, cfg.RatePerSec, cfg.Seed+seedOffFig8LoadGen)
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
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 60_000
	}
}

// fig8Host builds the half-system host of the §VII methodology (SNC mode:
// 16 cores, 4 memory channels). A reduced LLC keeps the model light; cache
// pressure is represented through the pollution channel.
func fig8Host() (*host.Host, *offload.Platform) {
	p := timing.Default()
	h := host.MustNew(p, host.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 16, SNC: true})
	if _, err := h.Attach(device.DefaultConfig()); err != nil {
		panic(err)
	}
	return h, offload.NewPlatform(h)
}

const fig8FrameBase = phys.Addr(0x2000_0000)

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

// Fig8Zswap runs the zswap scenario: 2 Redis servers + kswapd sharing a
// core + a memory antagonist, under one backend variant (§VII methodology).
func Fig8Zswap(v Fig8Variant, w ycsb.Workload, cfg Fig8Config) Fig8Row {
	row, _ := Fig8ZswapDiag(v, w, cfg)
	return row
}

// Fig8ZswapDiag is Fig8Zswap with diagnostics.
func Fig8ZswapDiag(v Fig8Variant, w ycsb.Workload, cfg Fig8Config) (Fig8Row, Fig8Diag) {
	cfg.setDefaults()
	eng := sim.NewEngine()
	h, pl := fig8Host()
	p := h.Params()

	// Memory sizing: with the feature active the working sets exceed RAM so
	// reclaim runs continuously; the baseline ("Redis running alone") has
	// headroom.
	totalPages := 2350
	if v == Baseline {
		totalPages = 8000
	}
	mm := kernel.NewMM(p, h.Store(), fig8FrameBase, totalPages)
	backing := kernel.NewBackingSwap(18*sim.Microsecond, 22*sim.Microsecond)

	var z *zswap.Zswap
	if v == Baseline {
		mm.SetSwap(backing)
	} else {
		poolBase := phys.Addr(0x8000_0000)
		backend := offload.NewZswapBackend(offload.Variant(v), pl)
		if backend.PoolInDeviceMemory() {
			poolBase = mem.RegionDevice.Base + (64 << 20)
		}
		z = zswap.MustNew(zswap.Config{
			MaxPoolPercent: 20,
			TotalRAMPages:  totalPages,
			PoolBase:       poolBase,
			PoolPages:      1024,
		}, backend, backing)
		mm.SetSwap(z)
	}

	// kswapd shares core 0 with the first Redis server — kernel threads
	// float onto application cores.
	kswapd := kernel.NewKswapd(eng, mm, h.Core(0).Sched)
	kswapd.BatchSize = 8
	if cfg.KswapdBatch > 0 {
		kswapd.BatchSize = cfg.KswapdBatch
	}

	// The antagonist churns memory on core 2, keeping kswapd busy; its page
	// streams also displace LLC lines, which every non-baseline
	// configuration suffers ("Redis running alone" is the clean baseline).
	var ant *kvs.Antagonist
	if v != Baseline {
		antAS := mm.NewAddressSpace(99)
		ant = kvs.NewAntagonist(eng, antAS, h.Core(2).Sched, cfg.Seed+seedOffFig8Antagonist)
		ant.PagesPerBurst = 8
		ant.Interval = 500 * sim.Microsecond
		ant.Keep = 1800 // a large cold tail: reclaim victims are mostly the antagonist's
		if cfg.Temporal {
			// Episodic churn: bursts of allocation pressure instead of the
			// steady 2 kHz drumbeat, so reclaim comes in wavefronts.
			ant.Gaps = workload.NewTemporal(workload.FlatRate(2000)).
				WithBursts(workload.BurstSpec{
					MeanGap:    20 * sim.Millisecond,
					MeanLen:    4 * sim.Millisecond,
					Factor:     4,
					Cooldown:   8 * sim.Millisecond,
					CoolFactor: 0.25,
				})
		}
	}

	pollution := func() uint64 { return 0 }
	if z != nil {
		pollution = func() uint64 { return z.Stats().PollutedLines + ant.PollutedLines() }
	}

	// Two Redis servers on cores 0 and 1 (the paper runs 2 servers + 6
	// clients on 8 cores; clients are the load generator here).
	scfg := kvs.DefaultConfig()
	scfg.Records = 8000 // 500 pages per server: the hot set stays mostly resident
	servers := make([]*kvs.Server, 2)
	loader := sim.NewProc(eng, "loader", nil)
	for i := range servers {
		as := mm.NewAddressSpace(i + 1)
		srv, err := kvs.NewServer(eng, scfg, h.Core(i).Sched, as, pollution)
		if err != nil {
			panic(err)
		}
		if err := srv.LoadDataset(loader); err != nil {
			panic(err)
		}
		servers[i] = srv
	}

	if ant != nil {
		ant.Start()
	}

	gen := ycsb.MustNewGenerator(w, cfg.dist(), uint64(scfg.Records), cfg.Seed)
	lg := fig8LoadGen(eng, servers, gen, cfg)
	lg.Start()
	// Requests complete synchronously within their arrival event, so the
	// horizon is exact; the daemons (kswapd, antagonist) would reschedule
	// forever and are simply cut off at the horizon.
	eng.RunUntil(cfg.Duration)
	lg.Stop()

	all := stats.NewSample(int(servers[0].Served() + servers[1].Served()))
	var served, faults uint64
	verify := true
	for _, s := range servers {
		for _, x := range s.Latencies().Values() {
			all.Add(x)
		}
		served += s.Served()
		faults += s.Faults()
		verify = verify && s.VerifyOK()
	}

	row := Fig8Row{
		Feature:  "zswap",
		Variant:  v,
		Workload: w,
		P50us:    all.Median(),
		P99us:    all.P99(),
		P999us:   all.Quantile(0.999),
		Served:   served,
		Faults:   faults,
		VerifyOK: verify,
	}
	if z != nil {
		st := z.Stats()
		row.PollutedLines = st.PollutedLines
		// Feature CPU: zswap data plane + reclaim/fault control plane,
		// over the three cores the feature touches.
		ctl := sim.Time(mm.Stats().SwapOuts)*p.SW.KswapdControlPlane +
			sim.Time(mm.Stats().MajorFaults)*p.SW.PageFaultBase
		row.FeatureCPUPct = 100 * float64(st.HostCPU+ctl) / float64(3*cfg.Duration)
	}
	diag := Fig8Diag{
		P99Core0:      servers[0].P99(),
		P99Core1:      servers[1].P99(),
		KswapdBusyPct: 100 * float64(h.Core(0).Sched.Busy()) / float64(cfg.Duration),
		SwapOuts:      mm.Stats().SwapOuts,
		MajorFaults:   mm.Stats().MajorFaults,
		EngineEvents:  eng.Executed(),
	}
	faultAll := stats.NewSample(256)
	cleanAll := stats.NewSample(4096)
	for _, s := range servers {
		for _, x := range s.FaultLatencies().Values() {
			faultAll.Add(x)
		}
		for _, x := range s.CleanLatencies().Values() {
			cleanAll.Add(x)
		}
	}
	if faultAll.N() > 0 {
		diag.FaultP99 = faultAll.P99()
	}
	if cleanAll.N() > 0 {
		diag.NoFaultP99 = cleanAll.P99()
	}
	if z != nil {
		diag.Writebacks = z.Stats().Writebacks
		diag.BackingLoads = z.Stats().BackingLoads
	}
	return row, diag
}

// Fig8Ksm runs the ksm scenario: 16 VMs (4 serving Redis), ksmd sharing a
// serving core, scanning mergeable VM pages (§VII methodology).
func Fig8Ksm(v Fig8Variant, w ycsb.Workload, cfg Fig8Config) Fig8Row {
	row, _ := Fig8KsmDiag(v, w, cfg)
	return row
}

// Fig8KsmDiag is Fig8Ksm with diagnostics.
func Fig8KsmDiag(v Fig8Variant, w ycsb.Workload, cfg Fig8Config) (Fig8Row, Fig8Diag) {
	cfg.setDefaults()
	eng := sim.NewEngine()
	h, pl := fig8Host()
	p := h.Params()

	mm := kernel.NewMM(p, h.Store(), fig8FrameBase, 16000)
	mm.SetSwap(kernel.NewBackingSwap(18*sim.Microsecond, 22*sim.Microsecond))

	// 12 client VMs hold mergeable pages: a shared set of template pages
	// (OS image / common libraries) plus private pages.
	rng := rng.New(cfg.Seed + seedOffFig8Pages)
	templates := make([][]byte, 64)
	for i := range templates {
		templates[i] = lzc.SyntheticPage(rng, phys.PageSize, 0.5)
	}
	loader := sim.NewProc(eng, "loader", nil)

	var scanner *ksm.Scanner
	var daemon *ksm.Daemon
	if v != Baseline {
		scanner = ksm.NewScanner(mm, offload.NewKsmBackend(offload.Variant(v), pl))
	}
	clientVMs := make([]*kernel.AddressSpace, 12)
	for i := range clientVMs {
		as := mm.NewAddressSpace(100 + i)
		for vpn := uint64(0); vpn < 160; vpn++ {
			var page []byte
			if vpn%2 == 0 {
				page = templates[int(vpn/2)%len(templates)] // duplicate across VMs
			} else {
				page = lzc.SyntheticPage(rng, phys.PageSize, 0.5) // private
			}
			if err := as.Map(vpn, page, loader); err != nil {
				panic(err)
			}
		}
		if scanner != nil {
			scanner.RegisterRange(as, 0, 160)
		}
		clientVMs[i] = as
	}

	pollution := func() uint64 { return 0 }
	if scanner != nil {
		pollution = func() uint64 { return scanner.Stats().Polluted }
	}

	// 4 Redis server VMs pinned to cores 0–3; ksmd shares core 0.
	scfg := kvs.DefaultConfig()
	scfg.Records = 8000
	// ksm displaces far fewer lines per op than zswap's page streams; the
	// refill penalty is correspondingly lighter.
	scfg.PollutionPenaltyPerLine = 15 * sim.Nanosecond
	scfg.PollutionCap = 2500 * sim.Nanosecond
	servers := make([]*kvs.Server, 4)
	for i := range servers {
		as := mm.NewAddressSpace(i + 1)
		srv, err := kvs.NewServer(eng, scfg, h.Core(i).Sched, as, pollution)
		if err != nil {
			panic(err)
		}
		if err := srv.LoadDataset(loader); err != nil {
			panic(err)
		}
		servers[i] = srv
	}

	if scanner != nil {
		daemon = ksm.NewDaemon(eng, scanner, h.Core(0).Sched)
		daemon.PagesPerBatch = 110
		daemon.SleepBetween = 2200 * sim.Microsecond
		// ksmd floats: over the run it lands on every serving core.
		daemon.FloatCores = []*sim.Resource{
			h.Core(0).Sched, h.Core(1).Sched, h.Core(2).Sched, h.Core(3).Sched,
		}
		if cfg.Temporal {
			// Drawn inter-batch sleeps around the tuned 2.2 ms cadence: a
			// ksmd whose pacing jitters instead of metronoming.
			daemon.SetSleepSource(
				workload.NewTemporal(workload.FlatRate(1/0.0022)),
				cfg.Seed+seedOffFig8KsmSleep)
		}
		daemon.Start()
	}

	// Client VMs churn a little so ksmd always has work (checksum changes,
	// CoW breaks).
	churn := sim.NewProc(eng, "churn", h.Core(4).Sched)
	var churnStep func(pr *sim.Proc)
	churnStep = func(pr *sim.Proc) {
		vm := clientVMs[rng.Intn(len(clientVMs))]
		vpn := uint64(rng.Intn(160))
		vm.Write(vpn, lzc.SyntheticPage(rng, phys.PageSize, 0.5), pr)
		pr.Sleep(2 * sim.Millisecond)
		pr.Schedule(churnStep)
	}
	churn.Schedule(churnStep)

	gen := ycsb.MustNewGenerator(w, cfg.dist(), uint64(scfg.Records), cfg.Seed)
	lg := fig8LoadGen(eng, servers, gen, cfg)
	lg.Start()
	eng.RunUntil(cfg.Duration)
	lg.Stop()
	if daemon != nil {
		daemon.Stop()
	}

	all := stats.NewSample(4096)
	var served, faults uint64
	verify := true
	for _, s := range servers {
		for _, x := range s.Latencies().Values() {
			all.Add(x)
		}
		served += s.Served()
		faults += s.Faults()
		verify = verify && s.VerifyOK()
	}
	row := Fig8Row{
		Feature:  "ksm",
		Variant:  v,
		Workload: w,
		P50us:    all.Median(),
		P99us:    all.P99(),
		P999us:   all.Quantile(0.999),
		Served:   served,
		Faults:   faults,
		VerifyOK: verify,
	}
	diag := Fig8Diag{
		P99Core0:      servers[0].P99(),
		P99Core1:      servers[1].P99(),
		KswapdBusyPct: 100 * float64(h.Core(0).Sched.Busy()) / float64(cfg.Duration),
		EngineEvents:  eng.Executed(),
	}
	if scanner != nil {
		st := scanner.Stats()
		row.PollutedLines = st.Polluted
		ctl := sim.Time(st.PagesScanned) * p.SW.KsmControlPlane
		row.FeatureCPUPct = 100 * float64(st.HostCPU+ctl) / float64(5*cfg.Duration)
		diag.SwapOuts = st.PagesScanned
		diag.Writebacks = st.PagesMerged + st.NewStable
		diag.BackingLoads = uint64(daemon.Batches())
	}
	return row, diag
}

// Fig8 runs one feature across all variants and workloads, filling in the
// baseline-normalized p99 like the paper's figure. It is the serial form
// of Fig8Jobs, pinned to the calibrated seed so the legacy paths
// (kvsbench, the calibration workflow) keep their published numbers.
func Fig8(feature string, workloads []ycsb.Workload, cfg Fig8Config) []Fig8Row {
	if cfg.Seed == 0 {
		cfg.Seed = seedFig8Calibrated
	}
	return Fig8Collect(runner.Run(Fig8Jobs(feature, workloads, cfg), runner.Options{Workers: 1}))
}

// Fig8Jobs returns one job per workload, each forking the baseline + the
// four backend co-simulations as sub-jobs — baseline first, in the paper's
// order — so a single workload's five variants spread across the pool even
// when fig8 is the only section running. When cfg.Seed is zero each
// variant runs under its derived seed (rootSeed × "fig8/feature/workload"
// × variant through internal/rng); a non-zero cfg.Seed pins every run,
// which is what the calibration uses.
func Fig8Jobs(feature string, workloads []ycsb.Workload, cfg Fig8Config) []runner.Job {
	if len(workloads) == 0 {
		workloads = ycsb.Workloads()
	}
	run := Fig8ZswapDiag
	if feature == "ksm" {
		run = Fig8KsmDiag
	}
	var jobs []runner.Job
	for _, w := range workloads {
		id := fmt.Sprintf("fig8/%s/%s", feature, w)
		jobs = append(jobs, runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
			var subs []runner.SubJob
			for _, v := range Fig8Variants() {
				subs = append(subs, runner.SubJob{ID: v.String(), Run: func(sctx *runner.Ctx) (any, error) {
					c := cfg
					if c.Seed == 0 {
						c.Seed = sctx.Seed
					}
					row, _, events := fig8RunCounted(run, v, w, c)
					sctx.AddEvents(events)
					return []Fig8Row{row}, nil
				}})
			}
			return forkRows[Fig8Row](ctx, subs)
		}})
	}
	return jobs
}

// fig8Run is the signature shared by Fig8ZswapDiag and Fig8KsmDiag.
type fig8Run = func(Fig8Variant, ycsb.Workload, Fig8Config) (Fig8Row, Fig8Diag)

// fig8RunCounted runs one co-simulation and reports its engine's
// dispatched-event count for the runner's event-rate stat.
func fig8RunCounted(run fig8Run, v Fig8Variant, w ycsb.Workload, cfg Fig8Config) (Fig8Row, Fig8Diag, uint64) {
	row, diag := run(v, w, cfg)
	return row, diag, diag.EngineEvents
}

// Fig8Collect assembles job results (in Fig8Jobs order) into rows,
// filling in the baseline-normalized p99: within each workload the
// baseline job precedes its variants, so normalization is a single pass.
func Fig8Collect(results []runner.Result) []Fig8Row {
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

// Fig8Find locates a row.
func Fig8Find(rows []Fig8Row, v Fig8Variant, w ycsb.Workload) Fig8Row {
	for _, r := range rows {
		if r.Variant == v && r.Workload == w {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no Fig8 row %v/%v", v, w))
}
