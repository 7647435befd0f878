package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different streams produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	child := parent.Split()
	// The child must not replay the parent's sequence.
	p2 := New(5)
	p2.Uint64()
	p2.Uint64() // Split consumed two parent draws.
	same := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split child tracks parent sequence (%d/100 collisions)", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		o := r.Float64Open()
		if o <= 0 || o >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", o)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 5*math.Sqrt(n/7.0) {
			t.Fatalf("bucket %d count %d deviates from uniform", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(13)
	const n = 400000
	rate := 2.5
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	m2 := sumSq / n
	if math.Abs(mean-1/rate) > 0.005 {
		t.Fatalf("Exp mean %v, want %v", mean, 1/rate)
	}
	// Second moment of Exp(rate) is 2/rate^2.
	if math.Abs(m2-2/(rate*rate)) > 0.01 {
		t.Fatalf("Exp second moment %v, want %v", m2, 2/(rate*rate))
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const n = 400000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Normal mean %v, want 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Normal variance %v, want 1", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 80} {
		r := New(uint64(100 + mean))
		const n = 200000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.02 {
			t.Fatalf("Poisson(%v) mean %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.08*mean+0.05 {
			t.Fatalf("Poisson(%v) variance %v", mean, variance)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	if v := New(1).Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ shape, rate float64 }{{0.5, 1}, {2, 3}, {9, 0.5}} {
		r := New(uint64(1000*tc.shape) + uint64(tc.rate))
		const n = 300000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := r.Gamma(tc.shape, tc.rate)
			if v < 0 {
				t.Fatalf("Gamma returned negative %v", v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := tc.shape / tc.rate
		wantVar := tc.shape / (tc.rate * tc.rate)
		if math.Abs(mean-wantMean) > 0.03*wantMean {
			t.Fatalf("Gamma(%v,%v) mean %v want %v", tc.shape, tc.rate, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.08*wantVar {
			t.Fatalf("Gamma(%v,%v) variance %v want %v", tc.shape, tc.rate, variance, wantVar)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	f := func(n uint8) bool {
		size := int(n%32) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", freq)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestUint64StreamPinned freezes the raw generator output: the first 64
// draws of two (seed, stream) pairs. Every variate, seed derivation and
// published number sits on this sequence, so an edit to the LCG step, the
// 128-bit multiply or the output permutation must leave it bit-identical.
func TestUint64StreamPinned(t *testing.T) {
	cases := []struct {
		seed, stream uint64
		want         [64]uint64
	}{
		{1, 0, [64]uint64{
			0xc46a1b753a667c27, 0x6f6322231f772e4b, 0x42197fbe1bd92d88, 0xed975921e7286adc,
			0x7d5d95072c687f55, 0xe80b97aba7723bc0, 0x91b706514359bbb5, 0x2d77977e008dbe93,
			0x237c5992f70d8738, 0x8da0e604daee650f, 0x4578998adc20c246, 0xb3f4e0fed15ecc94,
			0x71605ad83f5fc4d4, 0x62d038dccc4976bd, 0x6ddecf7ab4f536d2, 0x22104edc173409e1,
			0x24bc8a4fccde24d9, 0x7f52d9935b11b052, 0x429a6f04689275a7, 0x68c1a6e4ba14a384,
			0xc4c03ce2b9d40ac6, 0x008dd8a51a9548f5, 0xfbd040e41075b905, 0xfa9e83da82fb11d3,
			0x769c9c09df8a30dc, 0xd5209e4dae7933f0, 0x5b2de4b7154a7c2d, 0x319da091e9c1de4f,
			0x0a986c6497aa6252, 0xeb9776c00e8067de, 0xd8feb57a98f6a9c1, 0xb4e171932ddd730c,
			0xf6c1c80b14485b82, 0xab5cbeba52322bd2, 0x2ac07ea610fdadc6, 0x253b2b612bc59ec0,
			0x46f472d87cc48f7c, 0x89c26f5d42703b48, 0x0cb590ec9007d6e3, 0x9199427384b7d74f,
			0x84933500b4ec2085, 0xe55c0296e536eac6, 0x6796e0839f17d7b6, 0x9becf8866c0498d2,
			0xd7742eafcbe2cf24, 0xa66c35941791e581, 0x7600698b3c4a0ffa, 0x3cb4c288e72e76e9,
			0x4a9fa04c18e5aa21, 0xb3881de70202256f, 0xbf5034c8859ae20b, 0xc078ceb35f3b874d,
			0xd2768be700b0ed40, 0x8c28140af5ea28ee, 0xc47f17a49e3f40df, 0x2d58958042f31f04,
			0x3af25013d4c74710, 0x65b205019f75ad45, 0xbf7021f97ad29dfa, 0xd5111f517b4b98c4,
			0xf1163e8643c312f0, 0x6eeb940464a6f90f, 0x26a71a00ec85559a, 0x00a1baa33fd26c38,
		}},
		{7, 3, [64]uint64{
			0x989deb0f5c002e48, 0xaa02d1d678955c72, 0x28ec7a21dc6ef422, 0x0450e481d3479da2,
			0x6375fae6f428c464, 0x5c2cb40feb0fb373, 0x985caad3a4335332, 0xee4dde884213c5b1,
			0x854a5bdd30be5619, 0x1d390793e5cebe95, 0x666a13b5e12460a2, 0x487872a92ece3ed5,
			0xf10d6dbbfb9a223a, 0x1b9ae0c7c7e2c5e0, 0xd28906c5d70acded, 0x06b8d1c1a7b3dc44,
			0x29115192c29cf451, 0xa8e8187c24a40346, 0xb297734775d5870a, 0x38a0c3233e6af4b3,
			0x7f301f66286a22a0, 0x5748fdf8fe81a4da, 0xf4b78a3adff19119, 0x44cacd961a7ac41d,
			0xf2e1c06f0ae2cfb6, 0x1d854c3df24226cc, 0x8cae8e629fa117bf, 0xc21c2b0c9298a09b,
			0x8390ee2f8f2c9d27, 0x621b01c2924d1fee, 0x6199421a4ccbd623, 0x1813874b02220a6d,
			0x2d7f0237b1c9cc4f, 0xada670defb704632, 0xfc653393122109e8, 0x65e9bf52f82563a7,
			0x82ffe6fa951bfe96, 0xbc382f84e84b74ab, 0xb2a64f767ee8bc5a, 0x041d29e6eb318fa0,
			0xd1f896de75d116d6, 0xce44b173fe50f54d, 0x4315ef4ad203ba49, 0x6dff19379cb54eac,
			0x36a62b2fe5ba2e77, 0x3694eea63e17543d, 0x93f233a82839618f, 0x735c3878b96c7cbd,
			0x16517ccc61dce406, 0x32235af56a6974ec, 0x59bdde755b70c6e5, 0x5ee0c9ca5887d655,
			0xefdbb9a9f63c44b6, 0xa5d63ab929776ec2, 0xe62400003804e2cd, 0x0b16b97a98443dc6,
			0x6640be6df80e5456, 0xa40b276422764871, 0xdbe7ac84edc6aba3, 0x45132a72ed77f923,
			0x63bb23c2ecb4fa49, 0x6516ce88d72b414b, 0xe6e2a93a54377e70, 0x2b5cde281e3747b0,
		}},
	}
	for _, tc := range cases {
		r := NewStream(tc.seed, tc.stream)
		for i, want := range tc.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("NewStream(%d, %d) draw %d = %#016x, want pinned %#016x", tc.seed, tc.stream, i, got, want)
			}
		}
	}
}

func TestUint64Uniformity(t *testing.T) {
	// Chi-square over the top 4 bits.
	r := New(31)
	counts := make([]int, 16)
	const n = 160000
	for i := 0; i < n; i++ {
		counts[r.Uint64()>>60]++
	}
	expected := float64(n) / 16
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is about 37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-square statistic %v indicates non-uniform top bits", chi2)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(1)
	}
	_ = sink
}
