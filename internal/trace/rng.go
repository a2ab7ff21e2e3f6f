// Package trace generates the synthetic server-workload memory traces that
// substitute for the paper's CloudSuite and TPC-H traces (Methodology §IV).
//
// The generator reproduces the statistical structure the evaluated designs
// key on, rather than any particular program:
//
//   - memory is visited region by region (2 KB regions, Footprint Cache's
//     page size), with region popularity following a Zipf law over a
//     multi-gigabyte population — high page-level spatial locality, little
//     block-level temporal locality, exactly the server-workload regime of
//     §II;
//   - every visit is attributed to a PC drawn from a small "function pool",
//     and the set of blocks touched (the footprint) is a per-PC base
//     pattern perturbed by noise — making footprints PC-correlated and
//     learnable, the property the footprint predictor exploits (§III-A.1);
//   - a configurable fraction of PCs touch a single block (singleton
//     visits, §III-A.4), modelling pointer-chasing code like the hash-table
//     lookups the paper calls out in Data Analytics.
//
// Everything is deterministically seeded; identical seeds give identical
// traces.
package trace

import (
	"math"
	"sync"
)

// RNG is a splitmix64 pseudo-random generator: tiny state, high quality,
// fully deterministic across platforms.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn requires n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Geometric returns a sample with the given mean from a geometric
// distribution over {0, 1, 2, ...}; mean <= 0 returns 0.
func (r *RNG) Geometric(mean float64) int {
	return r.geometricDenom(geomDenom(mean))
}

// geomDenom precomputes the denominator of Geometric's inverse CDF for a
// fixed mean: log1p(-p) with p = 1/(mean+1). It returns 0 (a value no
// positive mean produces) as the mean-<=-0 sentinel. Hot paths that sample
// the same distribution millions of times (the stream generator) cache this
// and call geometricDenom, halving the transcendental work per sample while
// producing bit-identical values.
func geomDenom(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return math.Log1p(-(1 / (mean + 1)))
}

// geometricDenom samples the geometric distribution whose precomputed
// geomDenom is denom. A zero denom (mean <= 0) returns 0 without consuming
// randomness, matching Geometric exactly.
func (r *RNG) geometricDenom(denom float64) int {
	if denom == 0 {
		return 0
	}
	u := r.Float64()
	// Inverse CDF of the geometric distribution on {0,1,...}.
	return int(math.Floor(math.Log1p(-u) / denom))
}

// geomTableBits sizes the quantile table: 2^14 buckets over the uniform
// sample keeps the exact-formula fallback under ~5% even for the widest
// profile gap means, and under 1% for typical ones.
const geomTableBits = 14

// geomSlow marks a bucket whose samples must take the exact log1p path.
const geomSlow = int16(-1)

// geomTable is a vectorization of geometricDenom: the inverse CDF is a
// step function of the 53-bit uniform sample, so its value is precomputed
// per bucket of the sample's top geomTableBits bits. A bucket entry is
// only trusted when the quotient log1p(-u)/denom stays strictly inside one
// integer cell across the whole bucket with a safety margin of 1e-9 —
// about four orders of magnitude wider than the worst-case rounding error
// of the quotient — so no monotonicity or correct-rounding assumption
// about math.Log1p is needed; every bucket that contains (or merely comes
// near) a step boundary falls back to the exact formula. Sampling through
// the table is therefore bit-identical to geometricDenom by construction.
type geomTable struct {
	denom float64
	vals  [1 << geomTableBits]int16
}

// newGeomTable builds the quantile table for a nonzero denom.
func newGeomTable(denom float64) *geomTable {
	t := &geomTable{denom: denom}
	const shift = 53 - geomTableBits
	const margin = 1e-9
	for i := range t.vals {
		wLo := uint64(i) << shift
		wHi := wLo + (1<<shift - 1)
		qLo := math.Log1p(-float64(wLo)/(1<<53)) / denom
		qHi := math.Log1p(-float64(wHi)/(1<<53)) / denom
		k := math.Floor(qLo)
		t.vals[i] = geomSlow
		if k == math.Floor(qHi) && qLo-k >= margin && k+1-qHi >= margin &&
			k >= 0 && k <= float64(math.MaxInt16) {
			t.vals[i] = int16(k)
		}
	}
	return t
}

// geomTables shares quantile tables across streams: the table depends only
// on the denominator, which depends only on the profile, so every core's
// stream of a run (and every run of a sweep) reuses one 32 KB table per
// distinct (gap|repeat) mean.
var geomTables sync.Map // math.Float64bits(denom) -> *geomTable

// geomTableFor returns the shared table for denom, or nil for the zero
// (mean <= 0) sentinel, building and caching it on first use.
func geomTableFor(denom float64) *geomTable {
	if denom == 0 {
		return nil
	}
	key := math.Float64bits(denom)
	if v, ok := geomTables.Load(key); ok {
		return v.(*geomTable)
	}
	v, _ := geomTables.LoadOrStore(key, newGeomTable(denom))
	return v.(*geomTable)
}

// geometricTab samples the same distribution, consuming the same single
// Uint64 and returning the same value, as geometricDenom(t.denom) — but
// through the precomputed quantile table, skipping the transcendental call
// for the vast majority of draws. A nil table is the mean-<=-0 sentinel.
func (r *RNG) geometricTab(t *geomTable) int {
	if t == nil {
		return 0
	}
	return t.at(r.Uint64() >> 11) // the exact 53-bit sample Float64 would use
}

// at returns the sample's value for the 53-bit uniform w: the bucket's
// entry, or the exact inverse CDF for a bucket near a step. The per-event
// generator loop calls it directly so its table path stays inline.
func (t *geomTable) at(w uint64) int {
	if v := t.vals[w>>(53-geomTableBits)]; v >= 0 {
		return int(v)
	}
	return t.exact(w)
}

// exact is the inverse CDF at the 53-bit uniform w. It stays out of line
// so that at fits the compiler's inlining budget.
//
//go:noinline
func (t *geomTable) exact(w uint64) int {
	u := float64(w) / (1 << 53)
	return int(math.Floor(math.Log1p(-u) / t.denom))
}

// Zipf samples ranks in [0, N) under a Zipf-like power law with exponent
// theta, using the continuous inverse-CDF approximation of a truncated
// Pareto distribution. Unlike math/rand's Zipf it supports theta <= 1,
// which server-workload popularity distributions need.
type Zipf struct {
	n     uint64
	theta float64
	// Precomputed terms of the inverse CDF.
	oneMinus float64 // 1 - theta
	scale    float64 // (N+1)^(1-theta) - 1, or ln(N+1) when theta == 1
}

// NewZipf builds a sampler over [0, n) with skew theta >= 0 (0 = uniform).
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("trace: Zipf over empty range")
	}
	z := &Zipf{n: n, theta: theta, oneMinus: 1 - theta}
	if theta == 1 {
		z.scale = math.Log(float64(n + 1))
	} else {
		z.scale = math.Pow(float64(n+1), z.oneMinus) - 1
	}
	return z
}

// Sample draws a rank; rank 0 is the most popular.
func (z *Zipf) Sample(r *RNG) uint64 {
	u := r.Float64()
	var x float64
	if z.theta == 1 {
		x = math.Exp(u*z.scale) - 1
	} else {
		x = math.Pow(u*z.scale+1, 1/z.oneMinus) - 1
	}
	rank := uint64(x)
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// Perm is a deterministic pseudo-random permutation over [0, n), built as a
// 4-round Feistel network with cycle-walking. It scatters Zipf ranks across
// the physical address space so hot regions do not cluster in adjacent DRAM
// rows and cache sets.
type Perm struct {
	n        uint64
	halfBits uint
	halfMask uint64
	keys     [4]uint64
}

// NewPerm builds a permutation over [0, n) keyed by seed.
func NewPerm(n uint64, seed uint64) *Perm {
	if n == 0 {
		panic("trace: Perm over empty range")
	}
	bits := uint(1)
	for uint64(1)<<bits < n {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	p := &Perm{n: n, halfBits: bits / 2, halfMask: uint64(1)<<(bits/2) - 1}
	r := NewRNG(seed ^ 0xfeedface)
	for i := range p.keys {
		p.keys[i] = r.Uint64()
	}
	return p
}

// Apply maps x in [0, n) to its permuted image in [0, n).
func (p *Perm) Apply(x uint64) uint64 {
	if x >= p.n {
		panic("trace: Perm input out of range")
	}
	// Cycle-walk: re-encrypt until the image lands inside [0, n).
	for {
		l := x >> p.halfBits
		r := x & p.halfMask
		for _, k := range p.keys {
			l, r = r, l^(feistelF(r, k)&p.halfMask)
		}
		x = l<<p.halfBits | r
		if x < p.n {
			return x
		}
	}
}

func feistelF(r, k uint64) uint64 {
	x := r ^ k
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
