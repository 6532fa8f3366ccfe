package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile, so one outlier cannot set it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place. A failed operation is recorded as +Inf, so
// it counts as missing any latency bound. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)]
}

// rank is the zero-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error from lifting an exact rank (99.9% of
	// 10000 is 9990, not 9990.000000000002).
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond returns how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailPercentiles are the candidates tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailPercentiles with at
// least minBeyond of n samples above it, or 0 when there is none.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the median of xs (the mean of the two middle values for
// an even count), sorting a copy. It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// groupRates splits ops, sorted by completion time, into groups of equal
// op count and returns each group's rate: the values the group's
// successful ops carried, in millions, per second of the time from the
// previous group's last completion (or start) to its own. Groups tile the
// run with no gaps, so a back-to-back sequence of calls is measured
// exactly however few ops a group holds.
func groupRates(ops []op, start int64, groups int) []float64 {
	if groups > len(ops) {
		groups = len(ops)
	}
	rates := make([]float64, 0, groups)
	prev := start
	lo := 0
	for g := 1; g <= groups; g++ {
		hi := g * len(ops) / groups
		var vals int64
		for _, o := range ops[lo:hi] {
			if o.ok {
				vals += int64(o.values)
			}
		}
		end := ops[hi-1].end
		if end > prev {
			rates = append(rates, float64(vals)/float64(end-prev)*1e3)
		}
		prev, lo = end, hi
	}
	return rates
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the part of parent not covered by any child: parent's
// length minus the length of the union of the children clipped to it.
// Concurrent children (a proxy's replica legs) overlap, and their union,
// not their sum, is what the parent spent waiting.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.lo = max(c.lo, parent.lo)
		c.hi = min(c.hi, parent.hi)
		if c.hi > c.lo {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}

// overheadFrac is the traced run's throughput as a share of the untraced
// run's: 1 means tracing cost nothing, 0.9 that it cost a tenth.
func overheadFrac(traced, untraced float64) float64 {
	if untraced <= 0 {
		return math.NaN()
	}
	return traced / untraced
}
