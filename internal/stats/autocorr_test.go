package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

func ar1(r *xrand.Rand, n int, phi float64) []float64 {
	out := make([]float64, n)
	x := 0.0
	for i := range out {
		x = phi*x + r.Normal()
		out[i] = x
	}
	return out
}

func TestAutocorrelationLagZeroIsOne(t *testing.T) {
	r := xrand.New(1)
	s := ar1(r, 1000, 0.5)
	if math.Abs(Autocorrelation(s, 0)-1) > 1e-12 {
		t.Fatalf("rho(0) = %v", Autocorrelation(s, 0))
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with coefficient phi has rho(h) = phi^h.
	r := xrand.New(2)
	s := ar1(r, 200000, 0.7)
	for h := 1; h <= 4; h++ {
		want := math.Pow(0.7, float64(h))
		got := Autocorrelation(s, h)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("rho(%d) = %v, want %v", h, got, want)
		}
	}
}

func TestAutocorrelationIIDNearZero(t *testing.T) {
	r := xrand.New(3)
	s := make([]float64, 100000)
	for i := range s {
		s[i] = r.Normal()
	}
	if rho := Autocorrelation(s, 1); math.Abs(rho) > 0.01 {
		t.Fatalf("iid rho(1) = %v", rho)
	}
}

func TestIntegratedAutocorrTimeAR1(t *testing.T) {
	// tau for AR(1) is (1+phi)/(1-phi): phi=0.5 -> 3.
	r := xrand.New(4)
	s := ar1(r, 400000, 0.5)
	tau := IntegratedAutocorrTime(s)
	if math.Abs(tau-3) > 0.3 {
		t.Fatalf("tau = %v, want about 3", tau)
	}
	ess := EffectiveSampleSize(s)
	if math.Abs(ess-float64(len(s))/tau) > 1e-9 {
		t.Fatalf("ESS inconsistent: %v", ess)
	}
}

func TestAutocorrelationDegenerate(t *testing.T) {
	if !math.IsNaN(Autocorrelation([]float64{1, 1, 1}, 1)) {
		t.Fatal("constant series should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{1, 2}, 5)) {
		t.Fatal("out-of-range lag should be NaN")
	}
	if !math.IsNaN(IntegratedAutocorrTime([]float64{1, 2})) {
		t.Fatal("tiny series should be NaN")
	}
}

// refIntegratedAutocorrTime is the per-lag definition IntegratedAutocorrTime
// replaced: one Autocorrelation call (mean, lag sum and denominator) per
// lag. It is the test oracle the blocked version must match bit for bit.
func refIntegratedAutocorrTime(series []float64) float64 {
	n := len(series)
	if n < 4 {
		return math.NaN()
	}
	tau := 1.0
	for h := 1; h < n/2; h++ {
		rho := Autocorrelation(series, h)
		if math.IsNaN(rho) || rho <= 0 {
			break
		}
		tau += 2 * rho
	}
	return tau
}

func checkTauBits(t *testing.T, name string, s []float64) {
	t.Helper()
	got, want := IntegratedAutocorrTime(s), refIntegratedAutocorrTime(s)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s (n=%d): tau %v (%#x), per-lag reference %v (%#x)",
			name, len(s), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestIntegratedAutocorrTimeMatchesReference covers every length from 4 to
// 300, so every residue of the cut-off and of the series modulo the lag
// block occurs, at long and short cut-offs.
func TestIntegratedAutocorrTimeMatchesReference(t *testing.T) {
	r := xrand.New(11)
	for n := 4; n <= 300; n++ {
		for _, phi := range []float64{0, 0.9, 0.999} {
			checkTauBits(t, fmt.Sprintf("ar1 phi=%g", phi), ar1(r, n, phi))
		}
	}
}

func TestIntegratedAutocorrTimeAR1MatchesReference(t *testing.T) {
	r := xrand.New(12)
	for _, phi := range []float64{0, 0.5, 0.99, 0.999} {
		for _, n := range []int{1000, 10007} {
			checkTauBits(t, fmt.Sprintf("ar1 phi=%g", phi), ar1(r, n, phi))
		}
	}
}

func TestIntegratedAutocorrTimeDegenerateMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	alternating := make([]float64, 101)
	for i := range alternating {
		alternating[i] = float64(i % 2)
	}
	if rho := Autocorrelation(alternating, 1); !(rho < 0) {
		t.Fatalf("alternating series rho(1) = %v, want < 0", rho)
	}
	ramp := make([]float64, 64)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	for name, s := range map[string][]float64{
		"constant":    {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		"zeros":       make([]float64, 40),
		"nan":         {1, 2, math.NaN(), 4, 5, 6, 7, 8, 9, 10},
		"+inf":        {1, 2, 3, inf, 5, 6, 7, 8, 9, 10},
		"-inf":        {1, 2, 3, -inf, 5, 6, 7, 8, 9, 10},
		"both infs":   {1, inf, 3, -inf, 5, 6, 7, 8, 9, 10},
		"alternating": alternating,
		"ramp":        ramp,
		"short":       {1, 2, 3},
	} {
		checkTauBits(t, name, s)
	}
}

// FuzzIntegratedAutocorrTime checks the blocked autocorrelation time
// against the per-lag reference bit for bit. mode picks how the bytes
// become a series: 0 small steps as values, 1 the same steps as a random
// walk (long positive cut-offs), 2 raw float64 bits (NaN, ±Inf, subnormals).
func FuzzIntegratedAutocorrTime(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(0))
	f.Add([]byte{200, 1, 7, 0, 3, 90, 44, 12, 250, 9, 1, 1, 1, 1, 8, 8, 8, 8, 3, 4}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		var s []float64
		switch mode % 3 {
		case 0, 1:
			x := 0.0
			for i := 0; i+1 < len(data); i += 2 {
				step := float64(int16(binary.LittleEndian.Uint16(data[i:]))) / 256
				if mode%3 == 1 {
					x += step
				} else {
					x = step
				}
				s = append(s, x)
			}
		case 2:
			for i := 0; i+7 < len(data); i += 8 {
				s = append(s, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
		}
		got, want := IntegratedAutocorrTime(s), refIntegratedAutocorrTime(s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d mode %d: tau %v, per-lag reference %v", len(s), mode, got, want)
		}
	})
}
