package main

import (
	"context"
	"math"
	"time"

	"parsum"
)

// arrayN is the array-sum input size: 2^25 values, 256 MiB.
const arrayN = 1 << 25

// arraySum is the paper's problem as a library call: parsum.SumParallel
// with one worker per CPU over one large array, called back to back.
type arraySum struct {
	cfg  config
	xs   []float64
	want float64 // parsum.Sum(xs)
}

func newArraySum(cfg config) (workload, error) {
	xs := generate(arrayN, cfg.seed, cfg.nproc)
	return &arraySum{cfg: cfg, xs: xs, want: parsum.Sum(xs)}, nil
}

func (a *arraySum) sum(ph *phase) {
	got := parsum.SumParallel(a.xs, parsum.Options{Workers: a.cfg.nproc})
	if math.Float64bits(got) != math.Float64bits(a.want) && len(ph.errs) < maxErrs {
		ph.mismatch("SumParallel = %x, parsum.Sum = %x", math.Float64bits(got), math.Float64bits(a.want))
	}
}

func (a *arraySum) load(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	// Set-up is the warm-up call.
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		a.sum(ph)
		ph.setup = append(ph.setup, time.Since(t).Seconds())
	}
	u0 := readUsage()
	deadline := time.Now().Add(d)
	ph.ops = closedLoop(1, func(c, i int) (uint8, int, bool, bool) {
		if time.Now().After(deadline) {
			return 0, 0, false, true
		}
		_, s := tr.root(context.Background(), spanCall)
		a.sum(ph)
		tr.end(s)
		return opCall, len(a.xs), true, false
	})
	usageLayers(ph, u0, readUsage())
	return ph, nil
}

func (a *arraySum) probes(ph *phase) error {
	kernelProbes(ph, a.xs[:len(a.xs)/a.cfg.nproc], a.xs, a.cfg.nproc)
	return nil
}
