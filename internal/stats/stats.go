// Package stats provides the summary statistics used by the experiment
// harness: streaming moments, confidence intervals via batch means (the
// standard method for autocorrelated steady-state simulation output), and
// paired comparisons.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Summary accumulates streaming first/second moments with Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (NaN when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the unbiased sample variance (NaN when n < 2).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 { return s.StdDev() / math.Sqrt(float64(s.n)) }

// Min returns the smallest observation.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the 95% normal-approximation confidence half-width.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.2g (95%%)", s.n, s.Mean(), s.CI95())
}

// BatchMeans splits a correlated series into nbatch contiguous batches and
// returns the Summary of the batch means, whose CI is (approximately) valid
// despite autocorrelation within batches.
func BatchMeans(series []float64, nbatch int) (*Summary, error) {
	if nbatch < 2 {
		return nil, fmt.Errorf("stats: need at least 2 batches")
	}
	if len(series) < 2*nbatch {
		return nil, fmt.Errorf("stats: series of %d too short for %d batches", len(series), nbatch)
	}
	per := len(series) / nbatch
	var out Summary
	for b := 0; b < nbatch; b++ {
		sum := 0.0
		for _, v := range series[b*per : (b+1)*per] {
			sum += v
		}
		out.Add(sum / float64(per))
	}
	return &out, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data by linear
// interpolation; the input is not modified.
func Quantile(data []float64, q float64) float64 {
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	return SortedQuantile(sorted, q)
}

// SortedQuantile returns the q-quantile (0 <= q <= 1) of ascending data by
// linear interpolation between the order statistics around q·(n-1); NaN
// when the data is empty.
func SortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RelDiff returns (a-b)/b, the relative difference used throughout the
// experiment reports.
func RelDiff(a, b float64) float64 { return (a - b) / b }

// Comparison reports a paired comparison of two policies' metrics.
type Comparison struct {
	NameA, NameB string
	A, B         float64
}

// Winner returns the name of the smaller (better, for response times)
// metric, or "tie" within tol relative difference.
func (c Comparison) Winner(tol float64) string {
	if math.Abs(c.A-c.B) <= tol*math.Min(c.A, c.B) {
		return "tie"
	}
	if c.A < c.B {
		return c.NameA
	}
	return c.NameB
}

// Speedup returns B/A, how many times faster A is than B.
func (c Comparison) Speedup() float64 { return c.B / c.A }

// Histogram is a fixed-width bucket histogram over [Low, High).
type Histogram struct {
	Low, High float64
	Counts    []int64
	under     int64
	over      int64
}

// NewHistogram returns a histogram with n buckets spanning [low, high).
func NewHistogram(low, high float64, n int) *Histogram {
	if high <= low || n < 1 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Low: low, High: high, Counts: make([]int64, n)}
}

// Add records an observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Low:
		h.under++
	case x >= h.High:
		h.over++
	default:
		idx := int((x - h.Low) / (h.High - h.Low) * float64(len(h.Counts)))
		if idx == len(h.Counts) {
			idx--
		}
		h.Counts[idx]++
	}
}

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() int64 {
	t := h.under + h.over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// OutOfRange returns the count of observations outside [Low, High).
func (h *Histogram) OutOfRange() int64 { return h.under + h.over }
