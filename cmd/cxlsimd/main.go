// Command cxlsimd serves the simulator over HTTP: the paper's experiment
// sections, ad-hoc §V microbenchmark measurements and the full
// paper-vs-measured report, on top of the shared-nothing job runner.
//
// Because the runner renders byte-identical output per (config, seed)
// regardless of worker count, responses are cached in a size-bounded LRU
// and concurrent identical requests share one simulation run. A bounded
// admission queue sheds excess load with 429 + Retry-After; every run
// carries a deadline enforced as real cancellation inside the runner; and
// SIGINT/SIGTERM drain in-flight work within -drain-timeout before exit.
//
// -store-dir layers a content-addressed durable result store under the
// in-memory cache: rendered responses survive restarts (X-Cache:
// hit-disk) and replicas sharing the directory share entries.
//
// The daemon also runs distributed. `cxlsimd -worker -join URL` starts a
// thin execution worker that registers with a coordinator; `cxlsimd
// -coordinator` starts the front end in coordinator mode, sharding each
// run's jobs across registered workers (falling back to local execution
// when none are live). Output bytes are identical in every topology.
//
// Endpoints:
//
//	GET  /healthz                 liveness + queue/cache gauges
//	GET  /metrics                 Prometheus text exposition
//	GET  /v1/version              build + protocol compatibility info
//	GET  /v1/sections             section catalog
//	POST /v1/sections/{name}      run one section (body: reps/seed/format)
//	POST /v1/measure              one Measure{D2H,D2D,H2D} job
//	GET  /v1/report               full report (?full=&seed=)
//	POST /dist/v1/register        worker registration (coordinator mode)
//	GET  /dist/v1/workers         fleet listing (coordinator mode)
//
// Usage:
//
//	cxlsimd [-addr :8437] [-workers N] [-max-concurrent N] [-queue-depth N]
//	        [-cache-mb N] [-store-dir DIR] [-store-mb N]
//	        [-request-timeout D] [-drain-timeout D] [-reps N]
//	        [-coordinator]
//	cxlsimd -worker -join http://coordinator:8437 [-addr :8438]
//	        [-advertise host:port] [-workers N] [-max-concurrent N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	workers := flag.Int("workers", 0, "runner pool size per admitted run (0 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 2, "simultaneously executing runs")
	queueDepth := flag.Int("queue-depth", 8, "requests allowed to wait for a run slot before 429")
	cacheMB := flag.Int64("cache-mb", 64, "result-cache bound in MiB")
	storeDir := flag.String("store-dir", "", "durable result-store directory (empty = memory-only cache)")
	storeMB := flag.Int64("store-mb", 256, "durable result-store bound in MiB")
	requestTimeout := flag.Duration("request-timeout", 120*time.Second, "per-run deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	reps := flag.Int("reps", 0, "default section reps, read by infer, workload and cluster (0 keeps their defaults, not cxlbench's -reps 1000)")
	coordinator := flag.Bool("coordinator", false, "shard runs across registered dist workers")
	workerMode := flag.Bool("worker", false, "run as a dist execution worker instead of the daemon")
	join := flag.String("join", "", "coordinator base URL a -worker registers with")
	advertise := flag.String("advertise", "", "address the coordinator dials back (-worker; default: the listen address)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "worker re-registration interval")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		w := dist.NewWorker(dist.WorkerConfig{
			Addr:           *addr,
			Advertise:      *advertise,
			Coordinator:    *join,
			Workers:        *workers,
			MaxConcurrent:  *maxConcurrent,
			HeartbeatEvery: *heartbeat,
			Log:            log.New(os.Stderr, "cxlsimd-worker: ", log.LstdFlags),
		})
		if err := w.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "cxlsimd:", err)
			os.Exit(1)
		}
		return
	}

	cfg := service.Config{
		Addr:           *addr,
		Workers:        *workers,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		CacheBytes:     *cacheMB << 20,
		StoreDir:       *storeDir,
		StoreBytes:     *storeMB << 20,
		RequestTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
		DefaultReps:    *reps,
	}
	if *coordinator {
		cfg.Coordinator = dist.NewCoordinator(dist.CoordinatorConfig{
			Workers:    *workers,
			StaleAfter: 3 * *heartbeat,
			Log:        log.New(os.Stderr, "cxlsimd-coord: ", log.LstdFlags),
		})
	}
	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlsimd:", err)
		os.Exit(1)
	}
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "cxlsimd:", err)
		os.Exit(1)
	}
}
