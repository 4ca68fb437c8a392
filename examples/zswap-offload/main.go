// zswap-offload: run the §VI-A scenario end to end — a process
// overcommits memory, kswapd reclaims through zswap, and the compression
// data plane runs on each of the paper's four backends in turn. The
// example reports per-backend offload latency, host-CPU consumption and
// where the compressed pool lives, and verifies every page's content after
// a full swap-out/swap-in cycle.
//
//	go run ./examples/zswap-offload [-seed N]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"

	cxl2sim "repro"
	"repro/internal/rng"
)

const (
	ramPages  = 512 // managed RAM
	workPages = 800 // demand: forces ~300 pages through zswap
)

func main() {
	seed := flag.Int64("seed", 7, "seed for the synthetic pages' contents")
	flag.Parse()

	fmt.Printf("%-12s %-12s %-12s %-12s %-10s %-8s\n",
		"backend", "swap-outs", "hostCPU", "pool-ratio", "pool-mem", "verify")
	for _, v := range []cxl2sim.OffloadVariant{
		cxl2sim.CPU, cxl2sim.PCIeRDMA, cxl2sim.PCIeDMA, cxl2sim.CXL,
	} {
		runVariant(v, *seed)
	}
}

func runVariant(v cxl2sim.OffloadVariant, seed int64) {
	sys := cxl2sim.MustNewSystem(cxl2sim.Config{LLCBytes: 8 << 20, LLCWays: 16, Cores: 8})
	eng := cxl2sim.NewEngine()
	stack, err := sys.NewZswapStack(eng, v, ramPages, 60, 0)
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic process maps more pages than RAM holds; allocation
	// pressure drives kswapd and the direct-reclaim path through zswap.
	proc := sys.NewProc(eng, "app", 1)
	as := stack.MM.NewAddressSpace(1)
	prng := rng.New(seed)
	pages := make([][]byte, workPages)
	for i := range pages {
		pages[i] = compressiblePage(prng, byte(i))
		if err := as.Map(uint64(i), pages[i], proc); err != nil {
			log.Fatalf("map %d: %v", i, err)
		}
	}
	eng.Run()

	// Touch every page again: swapped ones fault back through the backend.
	verified := true
	for i := range pages {
		got, err := as.Read(uint64(i), proc)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, pages[i]) {
			verified = false
		}
	}
	eng.Run()

	zs := stack.Zswap.Stats()
	mm := stack.MM.Stats()
	ratio := float64(zs.UncompressedBytes) / float64(max64(zs.CompressedBytes, 1))
	poolMem := "host-DRAM"
	if stack.Zswap.Backend().PoolBase() >= cxl2sim.DeviceMemoryBase {
		poolMem = "device-mem"
	}
	fmt.Printf("%-12s %-12d %-12v %-12.2f %-10s %-8v\n",
		stack.Zswap.Backend().Name(), mm.SwapOuts, zs.HostCPU, ratio, poolMem, verified)
}

// compressiblePage builds a page that compresses ~2-3×, like typical
// anonymous memory.
func compressiblePage(rng *rand.Rand, tag byte) []byte {
	p := make([]byte, cxl2sim.PageSize)
	for i := 0; i < len(p); i += 16 {
		p[i] = tag
		p[i+1] = byte(i >> 8)
		// the rest of each 16-byte stanza stays zero — compressible
		if rng.Intn(4) == 0 {
			p[i+2] = byte(rng.Intn(256)) // sprinkle entropy
		}
	}
	return p
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
