package ycsb

import (
	"math"
	"sync"
)

// Zipfian is YCSB's zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases", SIGMOD'94 — the exact algorithm in
// YCSB's ZipfianGenerator.java) over the range [0, n): item rank r is drawn
// with probability proportional to 1/r^theta. YCSB's default theta is 0.99.
//
// The scrambled variant (YCSB's scrambled_zipfian, what workload files use
// by default) additionally hashes the rank so that the popular items are
// spread across the key space instead of clustering at its start.
type Zipfian struct {
	n     uint64
	theta float64
	// precomputed constants
	alpha, zetan, eta float64
	rand              func() float64
}

// NewZipfian creates a generator over [0, n) with the given theta, drawing
// uniform randoms from randFn (typically rng.Float64).
func NewZipfian(n uint64, theta float64, randFn func() float64) *Zipfian {
	if n < 2 {
		n = 2
	}
	z := &Zipfian{n: n, theta: theta, rand: randFn}
	zeta2 := zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// zetaStatic computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// YCSB caches these for common n; here every (n, theta) is summed once per
// process and memoized, so a process that generates many workloads (the
// experiment loops, the benchmark's set-up) pays the n math.Pow calls once.
// The sum is a pure function of its arguments, so a memoized value is
// bit-identical to a recomputed one and workloads do not change.
func zetaStatic(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetaMemo.Load(k); ok {
		return v.(float64)
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	zetaMemo.Store(k, sum)
	return sum
}

type zetaKey struct {
	n     uint64
	theta float64
}

// zetaMemo maps a zetaKey to its float64 zetaStatic sum.
var zetaMemo sync.Map

// Next draws the next zipfian rank in [0, n): rank 0 is the most popular.
func (z *Zipfian) Next() uint64 {
	u := z.rand()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// NextScrambled draws a scrambled-zipfian key in [0, n): zipfian popularity,
// uniformly spread identities (YCSB's FNV-hash scramble).
func (z *Zipfian) NextScrambled() uint64 {
	return scramble(z.Next()) % z.n
}
