package main

import (
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. The machine the baseline was recorded on (a
// 2-vCPU KVM guest on a shared host) runs the same fixed CPU loop up to
// 2× slower for seconds at a time, so raw wall times of one commit differ
// by tens of percent from run to run. Every measured stretch therefore
// interleaves a speed probe: a fixed kernel shaped like simulator code (an
// event heap, set-associative tag lookups, map updates, small
// allocations) that lives in this package and so never changes between
// the commits being compared. Closed loops probe between ops, set-up
// between set-ups. Each op's host time is scaled by probeRefMs over the
// mean of the probes just before and just after it: milliseconds at the
// reference speed. calib.probe_ms reports the raw probe median of set-up,
// and calib.raw_latency_ms_p50 the uncalibrated median op latency, so a
// change the scaling hides still shows.

// probeRefMs is the probe's duration at the reference speed: its typical
// quiet-period time on the baseline machine.
const probeRefMs = 0.8

// probeEvery is the least host time between probes, ~2% overhead.
const probeEvery = 50 * time.Millisecond

// speed collects the probe times of one measured stretch.
type speed struct {
	// width is how many probes run at once: the op's parallelism, so a
	// probe samples the speed of every CPU the op runs on.
	width int

	at []time.Time // when each probe ended
	ms []float64
}

// maybeProbe probes when probeEvery has passed since the last probe.
func (s *speed) maybeProbe() {
	if len(s.at) == 0 || time.Since(s.at[len(s.at)-1]) >= probeEvery {
		s.probeNow()
	}
}

func (s *speed) probeNow() {
	ds := make([]time.Duration, max(s.width, 1))
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds[i] = probe()
		}()
	}
	wg.Wait()
	total := time.Duration(0)
	for _, d := range ds {
		total += d
	}
	s.at = append(s.at, time.Now())
	s.ms = append(s.ms, ms(total)/float64(len(ds)))
}

func (s *speed) medianMs() float64 { return median(s.ms) }

// calibrate scales latMs[i], measured from starts[i], to the reference
// speed and returns the scaled times and their median factor.
func (s *speed) calibrate(starts []time.Time, latMs []float64) (calMs []float64, factor float64) {
	factors := make([]float64, len(starts))
	calMs = make([]float64, len(starts))
	for i, t := range starts {
		factors[i] = s.factorAt(t)
		calMs[i] = latMs[i] * factors[i]
	}
	return calMs, median(factors)
}

// factorAt scales a host time measured at t to the reference speed, from
// the probes just before and just after t.
func (s *speed) factorAt(t time.Time) float64 {
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t) })
	switch {
	case len(s.at) == 0:
		return 1
	case i == 0:
		return probeRefMs / s.ms[0]
	case i == len(s.at):
		return probeRefMs / s.ms[i-1]
	}
	return probeRefMs / ((s.ms[i-1] + s.ms[i]) / 2)
}

// probe runs the fixed reference kernel once and returns its duration.
func probe() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	heap := make([]uint64, 0, 256)
	push := func(v uint64) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() uint64 {
		v := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && heap[r] < heap[m] {
				m = r
			}
			if heap[i] <= heap[m] {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return v
	}
	var tags [256][4]uint64
	var age [256][4]uint8
	seen := make(map[uint64]uint64, 1024)
	for i := 0; i < 256; i++ {
		push(rnd() % 1000)
	}
	for i := 0; i < 6000; i++ {
		now := pop()
		a := rnd() % 8192
		set := &tags[a%256]
		ages := &age[a%256]
		way := -1
		for w := range set {
			if set[w] == a {
				way = w
			}
		}
		if way < 0 {
			way = 0
			for w := 1; w < len(set); w++ {
				if ages[w] > ages[way] {
					way = w
				}
			}
			set[way] = a
		}
		for w := range ages {
			if ages[w] < 255 {
				ages[w]++
			}
		}
		ages[way] = 0
		seen[a] += now & 7
		if i%64 == 0 {
			b := make([]byte, 64+i%128)
			b[len(b)-1] = byte(now)
			seen[a] += uint64(b[len(b)-1])
		}
		push(now + 1 + rnd()%100)
	}
	return time.Since(start)
}

// memSampler records the Go runtime's resident footprint — memory mapped
// from the OS and not released back — every 10 ms until stopped.
type memSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleMemory() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		samples := []rtmetrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		var mb []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(samples)
			mb = append(mb, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64())/1e6)
			select {
			case <-m.stop:
				m.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops the sampler and returns its samples in MB.
func (m *memSampler) end() []float64 {
	close(m.stop)
	return <-m.done
}
