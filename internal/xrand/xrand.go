// Package xrand provides a small, deterministic pseudo-random number
// generator suite used throughout the repository.
//
// Reproducibility is a hard requirement for the experiments in this
// repository: every figure regenerated by the benchmark harness must be
// bit-for-bit stable across runs and across machines. The package therefore
// implements its own PCG-64 (XSL-RR) generator rather than relying on the
// seeding behavior of math/rand, and exposes explicit stream derivation so
// that independent stochastic processes (e.g. the elastic and inelastic
// arrival processes) consume independent random streams.
//
// The generator's 128-bit LCG step uses math/bits.Mul64 (one hardware
// multiply on amd64), and Uint64 is small enough to inline. Exp, which
// draws every inter-arrival time and exponential job size in the
// simulator, is a 256-layer Marsaglia-Tsang ziggurat: one Uint64 per
// sample on the fast path, with an exact r - log U fallback in the tail
// beyond r = 7.697 and an e^-x test in the wedges. Its tables are built
// once at package init from the closed form, and TestZigguratTablesPinned
// fails loudly if a toolchain or architecture change to math.Exp or
// math.Log moves them.
package xrand

import (
	"math"
	"math/bits"
)

// mult is the 128-bit multiplier used by the PCG-64 family, split into two
// 64-bit halves (high, low).
const (
	multHi = 2549297995355413924
	multLo = 4865540595714422341
)

// Rand is a PCG-64 XSL-RR pseudo-random generator. The zero value is not
// usable; construct instances with New or NewStream.
type Rand struct {
	stateHi, stateLo uint64
	incHi, incLo     uint64
	// spare holds a cached standard normal variate (Box-Muller pairs).
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from a single 64-bit seed using the default
// stream. Two generators constructed with the same seed produce identical
// sequences.
func New(seed uint64) *Rand {
	return NewStream(seed, 0)
}

// NewStream returns a generator for the given (seed, stream) pair. Distinct
// stream values yield statistically independent sequences for the same seed,
// which the simulator uses to decouple arrival processes from size draws.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{}
	// The increment must be odd; fold the stream id in via SplitMix64 so
	// that nearby stream ids map to well-separated increments.
	inc := splitMix64(stream ^ 0xda3e39cb94b95bdb)
	r.incHi = splitMix64(inc)
	r.incLo = inc<<1 | 1
	r.stateHi = 0
	r.stateLo = 0
	r.step()
	r.addSeed(splitMix64(seed), splitMix64(seed^0x9e3779b97f4a7c15))
	r.step()
	return r
}

// Split derives a new independent generator from r. The derived generator's
// stream is drawn from r, so repeated Split calls yield distinct streams
// while preserving reproducibility of the parent sequence.
func (r *Rand) Split() *Rand {
	return NewStream(r.Uint64(), r.Uint64())
}

func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *Rand) addSeed(hi, lo uint64) {
	r.stateLo += lo
	r.stateHi += hi
	if r.stateLo < lo {
		r.stateHi++
	}
}

// step advances the 128-bit LCG state.
func (r *Rand) step() {
	// 128-bit multiply of state by mult, mod 2^128.
	hi, lo := bits.Mul64(r.stateLo, multLo)
	hi += r.stateLo*multHi + r.stateHi*multLo
	// 128-bit add of increment.
	lo, carry := bits.Add64(lo, r.incLo, 0)
	r.stateHi, r.stateLo = hi+r.incHi+carry, lo
}

// mul64 returns the 128-bit product of a and b (one MULQ on amd64).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	oldHi, oldLo := r.stateHi, r.stateLo
	r.step()
	// XSL-RR output function: xor the halves, rotate by the top 6 bits.
	return bits.RotateLeft64(oldHi^oldLo, -int(oldHi>>58))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero, which
// makes it safe to pass to math.Log.
func (r *Rand) Float64Open() float64 {
	for {
		v := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if v > 0 && v < 1 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
//
// It is a 256-layer ziggurat (Marsaglia & Tsang 2000). One Uint64 feeds
// the fast path: its low 8 bits pick a layer and its top 53 bits the
// abscissa, accepted outright when it lies inside the curve's rectangle
// (97.8% of draws). Otherwise the draw falls in the base layer's tail
// beyond zigR, sampled exactly as zigR - log U by memorylessness, or in a
// layer's wedge, accepted when a second uniform lies under e^-x.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	for {
		u := r.Uint64()
		i := u & 0xff
		j := u >> 11
		// The +0.5 centres the abscissa in its grid cell, so x > 0.
		x := (float64(j) + 0.5) * zigW[i]
		if j < zigK[i] {
			return x / rate
		}
		if i == 0 {
			return (zigR - math.Log(r.Float64Open())) / rate
		}
		// The conversion keeps the product from fusing into an FMA on
		// architectures that have one, so every platform rounds alike.
		if zigF[i]+float64(r.Float64()*(zigF[i-1]-zigF[i])) < math.Exp(-x) {
			return x / rate
		}
	}
}

// Ziggurat tables for Exp: 256 layers of equal area zigV under e^-x, the
// base layer (0) reaching to zigR and carrying the tail beyond it. Layer
// i >= 1 spans heights zigF[i]..zigF[i-1] out to its right edge x_i, with
// x_255 = zigR and x_0 = 0 (zigF[0] = 1).
const (
	zigR = 7.69711747013104972
	zigV = 3.949659822581572e-3
)

var (
	zigK [256]uint64  // fast-path bound: x_{i-1}/x_i (layer 0: zigR/width) scaled to 53 bits
	zigW [256]float64 // abscissa scale: the layer's width / 2^53
	zigF [256]float64 // e^-x_i
)

func init() {
	const m = 1 << 53
	x := zigR
	base := zigV / math.Exp(-x) // base layer width: rectangle plus tail
	zigK[0] = uint64(x / base * m)
	zigW[0] = base / m
	zigF[0] = 1
	zigW[255] = x / m
	zigF[255] = math.Exp(-x)
	for i := 254; i >= 1; i-- {
		outer := x
		x = -math.Log(zigV/x + math.Exp(-x))
		zigK[i+1] = uint64(x / outer * m)
		zigW[i] = x / m
		zigF[i] = math.Exp(-x)
	}
	// zigK[1] stays 0 (x_0 = 0): the top layer is all wedge.
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Normal returns a standard normal variate via the Box-Muller transform.
func (r *Rand) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	u := r.Float64Open()
	v := r.Float64Open()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// Poisson returns a Poisson-distributed integer with the given mean. For
// small means it uses Knuth's product method; for large means a
// transformed-rejection method keeps the cost bounded.
func (r *Rand) Poisson(mean float64) int {
	if mean < 0 {
		panic("xrand: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		// Knuth's method.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64Open()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction, resampled until
	// non-negative; accurate to well under the statistical noise of any
	// experiment in this repository for mean >= 30.
	for {
		v := math.Floor(mean + math.Sqrt(mean)*r.Normal() + 0.5)
		if v >= 0 {
			return int(v)
		}
	}
}

// Gamma returns a Gamma(shape, rate)-distributed value using the
// Marsaglia-Tsang method (with Ahrens-Dieter boosting for shape < 1).
func (r *Rand) Gamma(shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic("xrand: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64Open()
		return r.Gamma(shape+1, rate) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v / rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// Shuffle permutes the first n elements using the Fisher-Yates algorithm,
// calling swap(i, j) for each exchange.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
