package xrand

// Distribution tests for the ziggurat Exp sampler: the whole law (KS), the
// tail branch, the wedge branch, the first two moments, the range, and the
// tables themselves.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// fiveSigma reports whether count is within five binomial standard
// deviations of n*p.
func fiveSigma(count, n int, p float64) bool {
	mean := float64(n) * p
	return math.Abs(float64(count)-mean) <= 5*math.Sqrt(mean*(1-p))
}

// TestExpKolmogorovSmirnov compares 2e6 draws with the Exp(1) law
// 1 - e^-x. sqrt(n)*D follows the Kolmogorov distribution, whose
// 0.999 quantile is 1.95.
func TestExpKolmogorovSmirnov(t *testing.T) {
	const n = 2_000_000
	r := New(19)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Exp(1)
	}
	sort.Float64s(xs)
	d := 0.0
	for i, x := range xs {
		f := -math.Expm1(-x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	k := d * math.Sqrt(n)
	t.Logf("KS: D = %.3g, sqrt(n) D = %.3f", d, k)
	if k > 1.95 {
		t.Fatalf("sqrt(n) D = %.3f exceeds the 0.999 Kolmogorov quantile 1.95", k)
	}
}

// TestExpTailMass counts draws beyond the base layer's edge zigR, which
// only the i == 0 tail branch can produce, and beyond 12, which checks the
// tail's shape. Both counts must be non-zero and binomially consistent with
// P(X > x) = e^-x.
func TestExpTailMass(t *testing.T) {
	const n = 4_000_000
	r := New(23)
	beyondR, beyond12 := 0, 0
	for i := 0; i < n; i++ {
		x := r.Exp(1)
		if x > zigR {
			beyondR++
		}
		if x > 12 {
			beyond12++
		}
	}
	for _, c := range []struct {
		edge  float64
		count int
	}{{zigR, beyondR}, {12, beyond12}} {
		p := math.Exp(-c.edge)
		if c.count == 0 || !fiveSigma(c.count, n, p) {
			t.Errorf("draws beyond %v: %d, want %.1f within 5 sigma", c.edge, c.count, n*p)
		}
	}
}

// TestExpBranches classifies each call by the first Uint64 it consumes,
// read from a copy of the generator: fast path, tail or wedge. Fast-path
// results must equal the closed form; the tail and wedge visit counts must
// match the probabilities the tables imply; and wedge visits must both
// accept on the first e^-x test and reject into a redraw.
func TestExpBranches(t *testing.T) {
	const n = 1_000_000
	r := New(29)
	fast, tail, wedgeAccept, wedgeReject := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		shadow := *r
		u := shadow.Uint64()
		x := r.Exp(1)
		layer, j := u&0xff, u>>11
		switch {
		case j < zigK[layer]:
			fast++
			if want := (float64(j) + 0.5) * zigW[layer]; x != want {
				t.Fatalf("draw %d: fast path returned %v, want %v", i, x, want)
			}
		case layer == 0:
			tail++
			if x <= zigR {
				t.Fatalf("draw %d: tail branch returned %v <= r", i, x)
			}
		default:
			// An accepted wedge draw consumes exactly one more uniform.
			shadow.Uint64()
			if shadow == *r {
				wedgeAccept++
			} else {
				wedgeReject++
			}
		}
	}
	pTail := (1 - float64(zigK[0])/(1<<53)) / 256
	pWedge := 0.0
	for i := 1; i < 256; i++ {
		pWedge += (1 - float64(zigK[i])/(1<<53)) / 256
	}
	t.Logf("fast %d, tail %d, wedge %d accepted + %d rejected", fast, tail, wedgeAccept, wedgeReject)
	if !fiveSigma(tail, n, pTail) {
		t.Errorf("tail visits %d, want %.0f within 5 sigma", tail, n*pTail)
	}
	if !fiveSigma(wedgeAccept+wedgeReject, n, pWedge) {
		t.Errorf("wedge visits %d, want %.0f within 5 sigma", wedgeAccept+wedgeReject, n*pWedge)
	}
	if wedgeAccept == 0 || wedgeReject == 0 {
		t.Errorf("wedge test never both accepted (%d) and rejected (%d)", wedgeAccept, wedgeReject)
	}
}

// TestExpMeanVariance checks mean 1 and variance 1 of Exp(1) to five
// standard errors (Var of the sample variance of Exp(1) is 8/n).
func TestExpMeanVariance(t *testing.T) {
	const n = 2_000_000
	r := New(31)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(1)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 5*math.Sqrt(1.0/n) {
		t.Errorf("mean %v, want 1", mean)
	}
	if math.Abs(variance-1) > 5*math.Sqrt(8.0/n) {
		t.Errorf("variance %v, want 1", variance)
	}
}

// TestExpFinitePositive: for any seed and any rate in 2^-19..2^19, every
// draw is finite and strictly positive.
func TestExpFinitePositive(t *testing.T) {
	f := func(seed uint64, rateExp int8) bool {
		rate := math.Ldexp(1, int(rateExp%20))
		r := New(seed)
		for i := 0; i < 2000; i++ {
			if x := r.Exp(rate); !(x > 0) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestZigguratTablesPinned checks that every layer has area zigV and
// freezes the tables' bits, which are computed at init with math.Exp and
// math.Log: a toolchain or architecture change that moves them would move
// every exponential draw, so it must fail here first.
func TestZigguratTablesPinned(t *testing.T) {
	const m = 1 << 53
	if zigK[1] != 0 || zigF[0] != 1 || zigW[255]*m != zigR {
		t.Fatalf("table boundaries: zigK[1]=%d zigF[0]=%v zigW[255]*2^53=%v", zigK[1], zigF[0], zigW[255]*m)
	}
	area := func(i int) float64 {
		if i == 0 {
			return zigR*zigF[255] + math.Exp(-zigR) // rectangle plus tail
		}
		return zigW[i] * m * (zigF[i-1] - zigF[i])
	}
	for i := 0; i < 256; i++ {
		if a := area(i); math.Abs(a/zigV-1) > 1e-11 {
			t.Errorf("layer %d area %v, want %v", i, a, zigV)
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 256; i++ {
		for _, v := range []uint64{zigK[i], math.Float64bits(zigW[i]), math.Float64bits(zigF[i])} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	const want uint64 = 0xc64a105320dac16a
	if got := h.Sum64(); got != want {
		t.Fatalf("ziggurat tables checksum %#016x, want pinned %#016x", got, want)
	}
}
