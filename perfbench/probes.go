package main

import (
	"time"

	"parsum"
)

// kernelProbes times the accum and core layers on one goroutine: share
// is one worker's share of the input, all the whole input.
func kernelProbes(ph *phase, share, all []float64, nproc int) {
	var filled *parsum.Accumulator
	add := timeReps(3, func(int) {
		filled = parsum.NewAccumulator()
		filled.AddSlice(share)
	})
	ph.layers["accum.addslice_mvals_s"] = float64(len(share)) / medianNs(add) * 1e3

	ph.layers["accum.round_us"] = medianNs(timeEach(51, func() func() {
		c := filled.Clone()
		return func() { c.Round() }
	})) / 1e3

	lo, hi := parsum.NewAccumulator(), parsum.NewAccumulator()
	lo.AddSlice(share[:len(share)/2])
	hi.AddSlice(share[len(share)/2:])
	ph.layers["accum.merge_us"] = medianNs(timeEach(51, func() func() {
		c := lo.Clone()
		return func() { c.Merge(hi) }
	})) / 1e3

	seq := medianNs(timeReps(3, func(int) { parsum.Sum(all) }))
	par := medianNs(timeReps(3, func(int) { parsum.SumParallel(all, parsum.Options{Workers: nproc}) }))
	ph.layers["core.sum_seq_mvals_s"] = float64(len(all)) / seq * 1e3
	ph.layers["core.parallel_speedup"] = seq / par
}

// timeEach runs prepare untimed, then times the call it returns, reps
// times, and returns each call's duration in ns.
func timeEach(reps int, prepare func() func()) []int64 {
	ns := make([]int64, reps)
	for i := range ns {
		f := prepare()
		t := time.Now()
		f()
		ns[i] = int64(time.Since(t))
	}
	return ns
}

func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

// timeReps calls f reps times and returns each call's duration in ns.
func timeReps(reps int, f func(i int)) []int64 {
	ns := make([]int64, reps)
	for i := range ns {
		t := time.Now()
		f(i)
		ns[i] = int64(time.Since(t))
	}
	return ns
}

// pctUs returns the p-th percentile of durations in ns, in µs.
func pctUs(ns []int64, p float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	return percentile(xs, p)
}
