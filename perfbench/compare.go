package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode. Each directory holds saved run outputs named
// <workload>.<seed>.json, each ending with the run's result line. Runs of
// one workload are paired in file-name order, so save both sides under the
// same seeds. For every (metric, workload) the verdict follows the
// choosing-metrics rule for a small sandbox:
//
//   - unresolved: the parent's own spread (interquartile range over median)
//     exceeds the metric's bound, unless every change run beats every
//     parent run (then better);
//   - worse: the change's median is worse than the parent's by more than
//     the bound, or the change loses at least 9/10 of the pairs and the
//     medians differ by more than the parent's interquartile range;
//   - better: the change wins at least 9/10 of the pairs, ties counting for
//     neither, and the medians differ by more than the parent's
//     interquartile range;
//   - same: otherwise.
//
// Metrics without a bound (per-layer ones) are judged by the pair rules
// alone.

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadRuns reads a directory of saved outputs: workload -> metric -> values,
// in file-name order.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		wl, _, ok := strings.Cut(filepath.Base(f), ".")
		if !ok {
			continue
		}
		res, err := lastResult(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			out[wl][name] = append(out[wl][name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no <workload>.<seed>.json files in %s", dir)
	}
	return out, nil
}

func lastResult(path string) (result, error) {
	var res result
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported incorrect output")
	}
	return res, nil
}

// verdict applies the rule to one (metric, workload).
func verdict(parent, change []float64, higherBetter bool, bound float64) (string, int, int) {
	dir := 1.0
	if !higherBetter {
		dir = -1
	}
	n := min(len(parent), len(change))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := (change[i] - parent[i]) * dir; {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	mp, mc := median(parent), median(change)
	if mp == 0 && mc == 0 {
		return "same", wins, n
	}
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	rel := (mc - mp) / math.Abs(mp) * dir
	separated := true // every change run better than every parent run
	for _, c := range change {
		for _, p := range parent {
			if (c-p)*dir <= 0 {
				separated = false
			}
		}
	}
	moved := math.Abs(mc-mp) > iqr
	switch {
	case bound > 0 && iqr/math.Abs(mp) > bound:
		if separated {
			return "better", wins, n
		}
		return "unresolved", wins, n
	case bound > 0 && rel < -bound:
		return "worse", wins, n
	case rel > 0 && moved && float64(wins) >= 0.9*float64(n):
		return "better", wins, n
	case rel < 0 && moved && float64(losses) >= 0.9*float64(n):
		return "worse", wins, n
	}
	return "same", wins, n
}

func runCompare(w io.Writer, parentDir, changeDir string) error {
	var spec benchSpec
	if err := readJSONFile("BENCHMARK.json", &spec); err != nil {
		return fmt.Errorf("reading BENCHMARK.json (run from the checkout root): %w", err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range parent {
		if change[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-15s %-34s %13s %13s %8s %8s %6s  %s\n", "workload", "metric", "parent p50", "change p50", "change", "spread", "wins", "verdict")
	counts := map[string]int{}
	for _, wl := range wls {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			p, c := parent[wl][m.Name], change[wl][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins, n := verdict(p, c, m.Better == "higher", m.Bound)
			mp := median(p)
			fmt.Fprintf(w, "%-15s %-34s %13.6g %13.6g %+7.2f%% %7.2f%% %3d/%-2d  %s\n", wl, m.Name, mp, median(c),
				100*(median(c)-mp)/math.Abs(mp), 100*(quantile(p, 0.75)-quantile(p, 0.25))/math.Abs(mp), wins, n, v)
			counts[v]++
		}
	}
	fmt.Fprintf(w, "better %d, same %d, worse %d, unresolved %d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	return nil
}
