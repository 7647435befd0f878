package sim

import (
	"cmp"
	"slices"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// ResponseRecorder collects per-class response-time samples for percentile
// reporting. Below Capacity samples per class it stores everything exactly;
// beyond that it switches to reservoir sampling (Vitter's algorithm R), so
// memory stays bounded on arbitrarily long runs while percentile estimates
// remain unbiased.
type ResponseRecorder struct {
	Capacity int
	rng      *xrand.Rand
	samples  [][]float64
	seen     []int64
}

// NewResponseRecorder returns a recorder for the two-class preset holding up
// to capacity samples per class.
func NewResponseRecorder(capacity int, seed uint64) *ResponseRecorder {
	return NewClassResponseRecorder(2, capacity, seed)
}

// NewClassResponseRecorder returns a recorder for numClasses job classes
// holding up to capacity samples per class.
func NewClassResponseRecorder(numClasses, capacity int, seed uint64) *ResponseRecorder {
	if capacity < 1 {
		panic("sim: recorder capacity must be positive")
	}
	if numClasses < 1 {
		panic("sim: recorder needs at least one class")
	}
	return &ResponseRecorder{
		Capacity: capacity,
		rng:      xrand.NewStream(seed, 999),
		samples:  make([][]float64, numClasses),
		seen:     make([]int64, numClasses),
	}
}

// Observe records one completion. Classes beyond the constructed count grow
// the recorder on demand, so a two-class recorder attached to an N-class
// run degrades gracefully instead of panicking.
func (rr *ResponseRecorder) Observe(c Completion) {
	class := c.Job.Class
	for int(class) >= len(rr.samples) {
		rr.samples = append(rr.samples, nil)
		rr.seen = append(rr.seen, 0)
	}
	rr.seen[class]++
	s := rr.samples[class]
	if len(s) < rr.Capacity {
		rr.samples[class] = append(s, c.Response())
		return
	}
	// Reservoir replacement with probability capacity/seen.
	idx := rr.rng.Intn(int(rr.seen[class]))
	if idx < rr.Capacity {
		s[idx] = c.Response()
	}
}

// Seen returns the number of completions observed for the class (0 for a
// class never observed).
func (rr *ResponseRecorder) Seen(c Class) int64 {
	if c < 0 || int(c) >= len(rr.seen) {
		return 0
	}
	return rr.seen[c]
}

// Quantile returns the q-quantile of the recorded class-c response times
// (NaN when empty or never observed).
func (rr *ResponseRecorder) Quantile(c Class, q float64) float64 {
	return stats.SortedQuantile(rr.sorted(c), q)
}

// QuantileAll returns the q-quantile across all classes.
func (rr *ResponseRecorder) QuantileAll(q float64) float64 {
	all, _ := rr.Quantiles([]float64{q})
	return all[0]
}

// Quantiles returns each of the qs quantiles over all classes and, in
// perClass[c], over class c (NaN for a class never observed), sorting each
// class's samples once.
func (rr *ResponseRecorder) Quantiles(qs []float64) (all []float64, perClass [][]float64) {
	quantiles := func(sorted []float64) []float64 {
		out := make([]float64, len(qs))
		for i, q := range qs {
			out[i] = stats.SortedQuantile(sorted, q)
		}
		return out
	}
	classes := make([][]float64, len(rr.samples))
	perClass = make([][]float64, len(rr.samples))
	for c := range classes {
		classes[c] = rr.sorted(Class(c))
		perClass[c] = quantiles(classes[c])
	}
	return quantiles(mergeSorted(classes)), perClass
}

// sorted returns a sorted copy of class c's samples (nil for a class never
// observed); the reservoir keeps its slot order.
func (rr *ResponseRecorder) sorted(c Class) []float64 {
	if c < 0 || int(c) >= len(rr.samples) {
		return nil
	}
	s := slices.Clone(rr.samples[c])
	slices.Sort(s)
	return s
}

// mergeSorted merges ascending slices in the order slices.Sort uses (NaN
// first), so the result equals sorting their concatenation: ties are equal
// values, and responses are never NaN or negative zero.
func mergeSorted(parts [][]float64) []float64 {
	var out []float64
	for _, p := range parts {
		merged := make([]float64, 0, len(out)+len(p))
		i, j := 0, 0
		for i < len(out) && j < len(p) {
			if cmp.Less(p[j], out[i]) {
				merged = append(merged, p[j])
				j++
			} else {
				merged = append(merged, out[i])
				i++
			}
		}
		merged = append(merged, out[i:]...)
		out = append(merged, p[j:]...)
	}
	return out
}

// RunWithRecorder is sim.Run with a percentile recorder attached to the
// post-warmup completion stream.
func RunWithRecorder(cfg RunConfig, rr *ResponseRecorder) Result {
	return RunObserved(cfg, rr.Observe)
}
