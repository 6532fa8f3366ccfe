package main

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"parsum"
	"parsum/internal/gen"
)

// bigPrec holds any sum of up to 2^60 doubles exactly: the double range
// spans 2098 bits, plus headroom for the count.
const bigPrec = 2200

// delta is the paper's default exponent range δ for the Random
// distribution.
const delta = 2000

// generate returns n values of the Random distribution with δ = 2000 for
// seed, filled by nproc goroutines (the generator is chunk-addressable,
// so the values do not depend on the split).
func generate(n int, seed uint64, nproc int) []float64 {
	src := gen.New(gen.Config{Dist: gen.Random, N: int64(n), Delta: delta, Seed: seed})
	xs := make([]float64, n)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		lo, hi := w*n/nproc, (w+1)*n/nproc
		wg.Add(1)
		go func() {
			defer wg.Done()
			src.Fill(xs[lo:hi], int64(lo))
		}()
	}
	wg.Wait()
	return xs
}

func exactSum(xs []float64) *big.Float {
	s := new(big.Float).SetPrec(bigPrec)
	x := new(big.Float).SetPrec(bigPrec)
	for _, v := range xs {
		s.Add(s, x.SetFloat64(v))
	}
	return s
}

// pool is a fixed set of batches the clients draw from, with each batch's
// exact sum, so the exact sum of any multiset of acknowledged batches can
// be formed from counts without keeping the values.
type pool struct {
	all     []float64 // every batch, back to back
	batches [][]float64
	exact   []*big.Float
}

// newPool generates count batches of size values for seed. It checks that
// parsum.Sum of every batch equals the exact sum rounded once, which ties
// the count-based oracle below to parsum.Sum.
func newPool(count, size int, seed uint64, nproc int) (*pool, error) {
	xs := generate(count*size, seed, nproc)
	p := &pool{all: xs}
	for i := 0; i < count; i++ {
		b := xs[i*size : (i+1)*size : (i+1)*size]
		e := exactSum(b)
		if got, want := parsum.Sum(b), round(e); math.Float64bits(got) != math.Float64bits(want) {
			return nil, fmt.Errorf("oracle: parsum.Sum of batch %d is %x, exact sum rounds to %x",
				i, math.Float64bits(got), math.Float64bits(want))
		}
		p.batches = append(p.batches, b)
		p.exact = append(p.exact, e)
	}
	return p, nil
}

// sum returns the exact sum of counts[i] copies of each batch i, rounded
// once to nearest even: what parsum.Sum of the acknowledged inputs
// returns.
func (p *pool) sum(counts map[int]int64) float64 {
	s := new(big.Float).SetPrec(bigPrec)
	t := new(big.Float).SetPrec(bigPrec)
	c := new(big.Float).SetPrec(bigPrec)
	for i, n := range counts {
		c.SetInt64(n)
		s.Add(s, t.Mul(p.exact[i], c))
	}
	return round(s)
}

// round rounds an exact sum to the nearest float64, ties to even.
func round(x *big.Float) float64 {
	f, _ := x.Float64()
	return f
}
