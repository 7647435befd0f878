package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

func TestRecorderExactBelowCapacity(t *testing.T) {
	rr := NewResponseRecorder(100, 1)
	for i := 1; i <= 10; i++ {
		rr.Observe(Completion{
			Job:      Job{Class: Inelastic, Arrival: 0},
			Finished: float64(i),
		})
	}
	if rr.Seen(Inelastic) != 10 {
		t.Fatalf("seen %d", rr.Seen(Inelastic))
	}
	if got := rr.Quantile(Inelastic, 0); got != 1 {
		t.Fatalf("min %v", got)
	}
	if got := rr.Quantile(Inelastic, 1); got != 10 {
		t.Fatalf("max %v", got)
	}
	if got := rr.Quantile(Inelastic, 0.5); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("median %v", got)
	}
}

func TestRecorderEmptyIsNaN(t *testing.T) {
	rr := NewResponseRecorder(10, 1)
	if !math.IsNaN(rr.Quantile(Elastic, 0.5)) || !math.IsNaN(rr.QuantileAll(0.5)) {
		t.Fatal("empty recorder should be NaN")
	}
}

// TestReservoirUnbiased: with capacity << stream length, the reservoir
// median must track the true median of the stream distribution.
func TestReservoirUnbiased(t *testing.T) {
	rr := NewResponseRecorder(2000, 7)
	r := xrand.New(3)
	const n = 200000
	for i := 0; i < n; i++ {
		rr.Observe(Completion{
			Job:      Job{Class: Elastic, Arrival: 0},
			Finished: r.Exp(1), // response = Exp(1)
		})
	}
	if rr.Seen(Elastic) != n {
		t.Fatalf("seen %d", rr.Seen(Elastic))
	}
	// Exp(1) median is ln 2, p99 is ln 100.
	if got := rr.Quantile(Elastic, 0.5); math.Abs(got-math.Ln2) > 0.05 {
		t.Fatalf("reservoir median %v, want %v", got, math.Ln2)
	}
	if got := rr.Quantile(Elastic, 0.99); math.Abs(got-math.Log(100)) > 0.6 {
		t.Fatalf("reservoir p99 %v, want %v", got, math.Log(100))
	}
}

func TestRunWithRecorderMatchesRun(t *testing.T) {
	trace := makeTrace(2000, 0.3)
	runRes := Run(RunConfig{
		K: 2, Policy: ifPolicy{},
		Source: &SliceSource{Arrivals: append([]Arrival(nil), trace...)}, MaxJobs: 1500,
	})
	rr := NewResponseRecorder(10000, 1)
	recRes := RunWithRecorder(RunConfig{
		K: 2, Policy: ifPolicy{},
		Source: &SliceSource{Arrivals: append([]Arrival(nil), trace...)}, MaxJobs: 1500,
	}, rr)
	// Identical trace and policy: identical mean response over the
	// measured window (modulo the two runners' drain behavior, so compare
	// through the common completion count).
	if recRes.Completions == 0 || rr.Seen(Inelastic)+rr.Seen(Elastic) == 0 {
		t.Fatal("recorder run recorded nothing")
	}
	if math.IsNaN(rr.QuantileAll(0.5)) {
		t.Fatal("median NaN")
	}
	_ = runRes
}

func TestRecorderCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	NewResponseRecorder(0, 1)
}

// refQuantile is the per-call path Quantiles replaced: copy the samples,
// sort the copy, interpolate.
func refQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestRecorderQuantilesMatchPerCallSort: the one-sort path returns, bit for
// bit, the quantiles of copying and sorting per call — overall and per
// class — for an overflowing reservoir, a class grown on demand, a class
// never observed, and q at both ends and inside. It leaves the reservoir's
// slot order untouched.
func TestRecorderQuantilesMatchPerCallSort(t *testing.T) {
	rr := NewResponseRecorder(500, 3) // classes 0 and 1; 1 is never observed
	r := xrand.New(9)
	for i := 0; i < 4000; i++ {
		class := Inelastic
		if i%3 == 0 {
			class = 3 // grown on demand
		}
		rr.Observe(Completion{Job: Job{Class: class}, Finished: r.Exp(1 + float64(class))})
	}
	if rr.Seen(Inelastic) <= int64(rr.Capacity) || rr.Seen(3) <= int64(rr.Capacity) {
		t.Fatalf("reservoirs did not overflow: seen %d and %d, capacity %d", rr.Seen(Inelastic), rr.Seen(3), rr.Capacity)
	}
	before := make([][]float64, len(rr.samples))
	var merged []float64
	for c, s := range rr.samples {
		before[c] = append([]float64(nil), s...)
		merged = append(merged, s...)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	qs := []float64{0, 0.1, 0.5, 0.99, 0.999, 1}
	all, perClass := rr.Quantiles(qs)
	if len(perClass) != 4 {
		t.Fatalf("%d per-class rows, want 4", len(perClass))
	}
	for i, q := range qs {
		if want := refQuantile(merged, q); !same(all[i], want) || !same(rr.QuantileAll(q), want) {
			t.Errorf("q=%g over all classes: Quantiles %v, QuantileAll %v, per-call sort %v", q, all[i], rr.QuantileAll(q), want)
		}
		for c := range perClass {
			want := refQuantile(rr.samples[c], q)
			if !same(perClass[c][i], want) || !same(rr.Quantile(Class(c), q), want) {
				t.Errorf("q=%g class %d: Quantiles %v, Quantile %v, per-call sort %v", q, c, perClass[c][i], rr.Quantile(Class(c), q), want)
			}
		}
		if !math.IsNaN(perClass[Elastic][i]) || !math.IsNaN(rr.Quantile(7, q)) {
			t.Errorf("q=%g: a class never observed must be NaN", q)
		}
	}
	for c, s := range rr.samples {
		for i := range s {
			if !same(s[i], before[c][i]) {
				t.Fatalf("class %d slot %d moved: the quantile path must sort a copy", c, i)
			}
		}
	}
}

// BenchmarkRecorderQuantiles is the tail read-out of one series-CI
// replication: 10k completions over two classes, p99 plus three quantiles,
// overall and per class.
func BenchmarkRecorderQuantiles(b *testing.B) {
	rr := NewResponseRecorder(1<<16, 1)
	r := xrand.New(2)
	for i := 0; i < 10000; i++ {
		rr.Observe(Completion{Job: Job{Class: Class(i % 2)}, Finished: r.Exp(1)})
	}
	qs := []float64{0.99, 0.5, 0.99, 0.999}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.Quantiles(qs)
	}
}
