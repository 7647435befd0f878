package exp

// Series-statistics golden: the replication fields computed from the
// recorded response series and the tail recorder (Trimmed, ESS, BatchCI,
// P99*, Quantiles*) frozen byte for byte, so a rewrite of stats'
// autocorrelation or of the recorder's quantile path is checked against the
// code it replaces. Regenerate with
//
//	go test ./internal/exp -run TestGoldenSeriesStats -update
//
// only on an intentional change to the numbers.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const seriesGolden = "golden_series_stats.json"

// seriesGoldenSweeps are two high-occupancy sweeps with every series option
// on: the two-class policies at rho 0.95, where the ESS lag cut-off runs to
// the hundreds, and one cappedladder cell, so more than two classes carry
// per-class quantiles.
func seriesGoldenSweeps() []Sweep {
	base := Sweep{
		Reps: 2, BaseSeed: 5, Jobs: 6000,
		AutoWarmup: true, Batches: 20, Tail: true,
		TailQuantiles: []float64{0.5, 0.99, 0.999},
	}
	twoClass, ladder := base, base
	twoClass.Name = "series-golden-twoclass"
	twoClass.Grid = Grid{K: []int{4}, Rho: []float64{0.95}, MuI: []float64{1}, MuE: []float64{1},
		Policies: []string{"IF", "EF", "EQUI", "SRPT"}}
	ladder.Name = "series-golden-cappedladder"
	ladder.Grid = Grid{K: []int{8}, Rho: []float64{0.95}, Mixes: []string{"cappedladder"},
		Policies: []string{"EQUI"}}
	return []Sweep{twoClass, ladder}
}

// TestGoldenSeriesStats byte-compares the JSON of the series sweeps with
// the frozen file.
func TestGoldenSeriesStats(t *testing.T) {
	var got bytes.Buffer
	for _, sw := range seriesGoldenSweeps() {
		rs, err := Run(context.Background(), sw, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", seriesGolden)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("series sweep output differs from %s:\n%s", path, firstDiff(got.Bytes(), want))
	}
}

// firstDiff reports the first differing line of two outputs.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	return "lengths differ"
}
