package stats

import (
	"testing"

	"repro/internal/xrand"
)

// The per-replication series statistics of a high-occupancy sweep cell:
// 10k responses whose autocorrelation decays as slowly as at rho 0.95-0.97.
const benchSeriesLen = 10000

func benchSeries() []float64 { return ar1(xrand.New(1), benchSeriesLen, 0.995) }

// BenchmarkEffectiveSampleSize scores an AR(1) series with phi = 0.995,
// whose lag cut-off runs to the hundreds.
func BenchmarkEffectiveSampleSize(b *testing.B) {
	s := benchSeries()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = EffectiveSampleSize(s)
	}
	_ = sink
}

func BenchmarkMSER5Trim(b *testing.B) {
	s := benchSeries()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = MSER5Trim(s)
	}
	_ = sink
}

// BenchmarkBatchMeans splits the series into 20 batches, as series-CI
// sweeps do.
func BenchmarkBatchMeans(b *testing.B) {
	s := benchSeries()
	var sink float64
	for i := 0; i < b.N; i++ {
		bm, err := BatchMeans(s, 20)
		if err != nil {
			b.Fatal(err)
		}
		sink = bm.CI95()
	}
	_ = sink
}
