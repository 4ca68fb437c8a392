package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// rankIndex is the 0-based index of the nearest-rank quantile of n sorted
// samples at perMille/1000: the smallest sample with at least
// ceil(perMille·n/1000) samples at or below it. Integer arithmetic keeps
// p99 of 1000 samples at rank 990 exactly.
func rankIndex(n, perMille int) int {
	k := (perMille*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k - 1
}

// percentile returns the nearest-rank quantile of xs at perMille/1000
// (500 = median, 990 = p99), or 0 for no samples. xs is not modified.
func percentile(xs []float64, perMille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), perMille)]
}

// beyond counts the samples of n that lie above the nearest-rank quantile
// at perMille/1000.
func beyond(n, perMille int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, perMille)
}

// tailLadder lists the tail percentiles tried, highest first.
var tailLadder = []int{999, 990, 980, 950, 900, 750, 500}

// tail returns the highest percentile of tailLadder (in per-mille) that
// leaves at least minBeyond samples above it, and its value; ok is false
// when even the median is unsupported.
func tail(xs []float64) (perMille int, v float64, ok bool) {
	for _, pm := range tailLadder {
		if beyond(len(xs), pm) >= minBeyond {
			return pm, percentile(xs, pm), true
		}
	}
	return 0, 0, false
}

func median(xs []float64) float64 { return percentile(xs, 500) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that the union of its
// children covers. Children may overlap each other (parallel jobs) and may
// stick out of the parent (a worker span outliving a cancelled request);
// only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
