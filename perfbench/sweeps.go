package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
)

// sweepDef is one sweep workload: the simulate invocations that make one
// request, and the checks its output must pass. Sweeps use the options a
// user gets by default: no engine flag, the pool backend.
type sweepDef struct {
	runs  [][]string // simulate flags per invocation, without -seed and -json
	check func(runs []*exp.ResultSet) error
	// serving marks the workload whose traced run also measures the
	// serving stack's layers (see serveLayers).
	serving bool
}

const (
	// paperGridReps gives each cell enough replications for a Student-t
	// interval with 7 degrees of freedom.
	paperGridReps = 8
	// ceilingT is the two-sided 1e-5 Student-t critical value for 7 degrees
	// of freedom. A single cell outside its 99.999% interval plus 1% fails
	// the run on its own; the 95% checks below gate on counts instead.
	ceilingT = 11.215
	// falseAlarm is the chance that a correct run fails a count gate: the
	// number of cells outside their 95% interval may not exceed the
	// Binomial(cells, 0.05) quantile at 1 - falseAlarm.
	falseAlarm = 1e-5
)

var sweepDefs = map[string]sweepDef{
	// The paper's experiment: exponential sizes, the Figure 4/5 (muI, muE)
	// axes at k=4 over the paper's loads, IF and EF, fixed warmup.
	"paper-grid": {
		runs: [][]string{{"-k", "4", "-rho", "0.5,0.7,0.9", "-muI", "0.5,1,2.5", "-muE", "0.5,1,2.5",
			"-policy", "IF,EF", "-reps", strconv.Itoa(paperGridReps), "-jobs", "12000", "-warmup", "2000"}},
		check:   checkPaperGrid,
		serving: true,
	},
	// Stable cells at rho 0.95-0.97 with E[N] from tens to hundreds, where
	// per-event engine cost grows with occupancy. partialelastic is stable
	// only under EQUI at these loads, so SRPT and LFF run on cappedladder.
	// Occupancy, and with it the work, varies between seeds, so each cell
	// averages it over 8 shorter replications.
	"high-occupancy": {
		runs: [][]string{
			{"-k", "4", "-rho", "0.95,0.97", "-muI", "1", "-muE", "1", "-policy", "IF,EF,EQUI,SRPT",
				"-reps", "8", "-jobs", "10000", "-warmup", "3000"},
			{"-k", "8", "-rho", "0.95,0.97", "-mix", "cappedladder", "-policy", "EQUI,SRPT,LFF",
				"-reps", "8", "-jobs", "10000", "-warmup", "3000"},
			{"-k", "8", "-rho", "0.95,0.97", "-mix", "partialelastic", "-policy", "EQUI",
				"-reps", "8", "-jobs", "10000", "-warmup", "3000"},
		},
		check: checkStable,
	},
	// The high-occupancy two-class cells and seeds with the options a user
	// sets for trustworthy CIs: MSER-5 warmup, batch means, tail quantiles.
	// The statistics' cost follows each series' autocorrelation, which
	// varies between seeds: one seed's request cost 20% more CPU than
	// another's at 8 and at 16 replications. 24 replications per cell, each
	// as long as high-occupancy's, average it.
	"series-ci": {
		runs: [][]string{{"-k", "4", "-rho", "0.95,0.97", "-muI", "1", "-muE", "1", "-policy", "IF,EF,EQUI,SRPT",
			"-reps", "24", "-jobs", "10000", "-auto-warmup", "-batches", "20", "-quantiles", "0.5,0.99,0.999"}},
		check: checkSeries,
	},
}

// simSeed maps the benchmark seed to simulate's -seed (which must be >= 1).
func (b *bench) simSeed() string { return strconv.FormatUint(b.seed%1_000_000_007+1, 10) }

// sweepRequest is one request of a sweep workload: every invocation of its
// definition, run in order.
type sweepRequest struct {
	wall time.Duration
	cpu  time.Duration
	rss  int64 // peak resident bytes of the largest invocation
	out  [][]byte
}

func (b *bench) runSweep(def sweepDef, extra ...string) (sweepRequest, error) {
	var req sweepRequest
	for i, flags := range def.runs {
		path := filepath.Join(b.work, fmt.Sprintf("out%d.json", i))
		argv := append([]string{filepath.Join(b.bin, "simulate")}, flags...)
		argv = append(argv, "-seed", b.simSeed(), "-json", path)
		argv = append(argv, extra...)
		b.attempted++
		wall, ru, err := runOnce(nil, argv...)
		if err != nil {
			b.failed++
			return req, err
		}
		out, err := os.ReadFile(path)
		if err != nil {
			return req, err
		}
		req.wall += wall
		req.cpu += cpuOf(ru)
		req.rss = max(req.rss, ru.Maxrss<<10)
		req.out = append(req.out, out)
	}
	return req, nil
}

// countWork parses a request's outputs and counts its tasks and measured
// completions (including what MSER trimmed: it was simulated and observed).
func countWork(outs [][]byte) ([]*exp.ResultSet, int64, int64, error) {
	var sets []*exp.ResultSet
	var tasks, jobs int64
	for _, out := range outs {
		var rs exp.ResultSet
		if err := json.Unmarshal(out, &rs); err != nil {
			return nil, 0, 0, fmt.Errorf("parsing simulate -json output: %w", err)
		}
		for _, cr := range rs.Cells {
			for _, r := range cr.Reps {
				tasks++
				jobs += r.Completions + int64(r.Trimmed)
			}
		}
		sets = append(sets, &rs)
	}
	return sets, tasks, jobs, nil
}

func runSweepWorkload(b *bench) error {
	def := sweepDefs[b.workload]
	if b.tr != nil {
		return b.traceSweep(def)
	}

	// Set-up: launch to result of the same grids at a trivial budget — the
	// fixed cost every invocation pays before it simulates.
	tiny := sweepDef{}
	for _, flags := range def.runs {
		tiny.runs = append(tiny.runs, append(append([]string(nil), flags...), "-jobs", "1000", "-warmup", "0", "-reps", "1"))
	}
	// Its launches are timed like the measured requests below: without
	// steal, scaled by the host step measured before and after them.
	step0 := b.hostStep()
	var setupWalls []float64
	for i := 0; i < 15; i++ {
		_, wall, err := b.runUnstolen(tiny)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, wall)
	}
	setupScale := (step0 + b.hostStep()) / 2 / refStepNs
	var setups []float64
	for _, w := range setupWalls {
		setups = append(setups, w/setupScale)
	}

	// Warm-up request, which also fills a cell cache; its output is the
	// reference every later request must equal.
	cache := filepath.Join(b.work, "cells.jsonl")
	ref, err := b.runSweep(def, "-cache", cache)
	if err != nil {
		return err
	}
	sets, tasks, jobs, err := countWork(ref.out)
	if err != nil {
		return err
	}
	if err := checkCounts(sets); err != nil {
		return err
	}
	if err := def.check(sets); err != nil {
		return err
	}

	// Measured phase: back-to-back requests, one in flight. Each request's
	// wall time leaves out the steal counted during it, and its times are
	// scaled by the mean host step measured before and after it
	// (hostspeed.go).
	var lat, rates, cpus, refRates, refCPUs, steps, steals []float64
	var rss int64
	steps = append(steps, b.hostStep())
	t0 := time.Now()
	for time.Since(t0).Seconds() < b.seconds || len(lat) < 3 {
		req, unstolen, err := b.runUnstolen(def)
		if err != nil {
			return err
		}
		if err := sameOutputs(ref.out, req.out); err != nil {
			return err
		}
		steps = append(steps, b.hostStep())
		scale := (steps[len(steps)-2] + steps[len(steps)-1]) / 2 / refStepNs
		wall := req.wall.Seconds()
		cpu := float64(req.cpu.Nanoseconds()) / float64(jobs)
		lat = append(lat, wall*1e3)
		rates = append(rates, float64(jobs)/wall)
		cpus = append(cpus, cpu)
		steals = append(steals, 1-unstolen/wall)
		refRates = append(refRates, float64(jobs)/unstolen*scale)
		refCPUs = append(refCPUs, cpu/scale)
		rss = max(rss, req.rss)
	}

	// The same sweep answered from the cell cache must give the same bytes.
	cached, err := b.runSweep(def, "-cache", cache)
	if err != nil {
		return err
	}
	if err := sameOutputs(ref.out, cached.out); err != nil {
		return fmt.Errorf("cached re-run: %w", err)
	}

	fmt.Printf("work per request: %d tasks, %d measured completions\n", tasks, jobs)
	fmt.Printf("%-36s %14.6g %s  (as measured on this host)\n", "setup wall", median(setupWalls), "s")
	b.timing("setup_s", setups, "s")
	fmt.Printf("%-36s %14.6g %s  (median over %d requests, as measured on this host)\n", "jobs_per_s", median(rates), "1/s", len(rates))
	fmt.Printf("%-36s %14.6g %s\n", "cpu_ns_per_job", median(cpus), "ns")
	fmt.Printf("%-36s %14.6g %s  (n=%d, reference %g ns, spread %.3f)\n", "host step", median(steps), "ns", len(steps), refStepNs, spread(steps))
	fmt.Printf("%-36s %14.6g %s  (max %.3g)\n", "steal share of request wall", median(steals), "share", slices.Max(steals))
	b.set("jobs_per_ref_s", median(refRates), "1/s")
	b.set("cpu_ref_ns_per_job", median(refCPUs), "ns")
	tails("request", lat)
	b.set("peak_rss_mb", float64(rss)/(1<<20), "MB")
	fmt.Printf("%-36s %14.6g %s\n", "failed_share", float64(b.failed)/float64(b.attempted), "share")
	return nil
}

// runUnstolen runs one request and also returns its wall time less the
// steal the kernel counted while it ran, spread over the slots
// (hostspeed.go). A request never counts as less than a tenth of its wall.
func (b *bench) runUnstolen(def sweepDef, extra ...string) (sweepRequest, float64, error) {
	st0 := stolen()
	req, err := b.runSweep(def, extra...)
	steal := (stolen() - st0).Seconds() / float64(b.slots)
	wall := req.wall.Seconds()
	return req, max(wall-steal, wall/10), err
}

func sameOutputs(want, got [][]byte) error {
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("invocation %d: output differs from the first request's (nondeterminism)", i)
		}
	}
	return nil
}

// checkCounts verifies that each output holds every cell of its grid with
// the spec's replications and completions.
func checkCounts(sets []*exp.ResultSet) error {
	for _, rs := range sets {
		sw := rs.Sweep
		if want := len(sw.Grid.Cells()); len(rs.Cells) != want {
			return fmt.Errorf("output has %d cells, the spec %d", len(rs.Cells), want)
		}
		for i, cr := range rs.Cells {
			if cr.Cell != sw.Grid.Cells()[i] {
				return fmt.Errorf("cell %d is %v, the spec's is %v", i, cr.Cell, sw.Grid.Cells()[i])
			}
			if len(cr.Reps) != sw.Reps {
				return fmt.Errorf("cell %v has %d replications, the spec %d", cr.Cell, len(cr.Reps), sw.Reps)
			}
			var total int64
			for _, r := range cr.Reps {
				if got := r.Completions + int64(r.Trimmed); got < sw.Jobs || got > sw.Jobs+1000 {
					return fmt.Errorf("cell %v rep %d measured %d completions, the spec %d", cr.Cell, r.Rep, got, sw.Jobs)
				}
				total += r.Completions
			}
			if cr.Completions != total {
				return fmt.Errorf("cell %v reports %d completions, its replications %d", cr.Cell, cr.Completions, total)
			}
		}
	}
	return nil
}

// repCI returns the mean of a cell's replication means and the half-width
// of its Student-t interval with critical value t.
func repCI(cr exp.CellResult, t float64) (mean, half float64) {
	n := float64(len(cr.Reps))
	for _, r := range cr.Reps {
		mean += r.MeanT
	}
	mean /= n
	ss := 0.0
	for _, r := range cr.Reps {
		ss += (r.MeanT - mean) * (r.MeanT - mean)
	}
	return mean, t * math.Sqrt(ss/(n-1)/n)
}

// maxOutside returns the largest number of n independent checks at level
// 1-p that a correct run fails with probability above falseAlarm: the
// smallest k with P(Binomial(n, p) > k) <= falseAlarm.
func maxOutside(n int, p float64) int {
	pmf := math.Pow(1-p, float64(n)) // P(X = 0)
	tail := 1 - pmf                  // P(X > 0)
	k := 0
	for tail > falseAlarm && k < n {
		pmf *= float64(n-k) / float64(k+1) * p / (1 - p)
		tail -= pmf
		k++
	}
	return k
}

// checkPaperGrid holds the paper's Section 5 claim — simulated E[T] agrees
// with the busy-period/QBD analysis within the cell's own 95% interval plus
// 1% — and Theorem 5: where muI >= muE, EF never significantly beats IF.
// Each check holds per cell at 95%, so a correct run still sees a few cells
// outside; the run fails when more cells are outside than a correct run
// shows with probability falseAlarm, or when any cell is outside its
// 99.999% interval plus 1%.
func checkPaperGrid(sets []*exp.ResultSet) error {
	type point struct{ k, rho, muI, muE float64 }
	byPoint := map[point]map[string]exp.CellResult{}
	outside := 0
	for _, cr := range sets[0].Cells {
		c := cr.Cell
		if len(cr.Reps) != paperGridReps {
			return fmt.Errorf("cell %v: %d replications, the check needs %d", c, len(cr.Reps), paperGridReps)
		}
		ifRes, efRes, err := core.ForLoad(c.K, c.Rho, c.MuI, c.MuE).Analyze()
		if err != nil {
			return fmt.Errorf("analysis of %v: %w", c, err)
		}
		an := ifRes.T
		if c.Policy == "EF" {
			an = efRes.T
		}
		if mean, half := repCI(cr, ceilingT); math.Abs(mean-an) > half+0.01*an {
			return fmt.Errorf("cell %v: simulated E[T] %.5f vs analysis %.5f, outside even the 99.999%% interval (%.5f) plus 1%%", c, mean, an, half)
		}
		if math.Abs(cr.ET-an) > cr.ETCI+0.01*an {
			outside++
		}
		p := point{float64(c.K), c.Rho, c.MuI, c.MuE}
		if byPoint[p] == nil {
			byPoint[p] = map[string]exp.CellResult{}
		}
		byPoint[p][c.Policy] = cr
	}
	if lim := maxOutside(len(sets[0].Cells), 0.05); outside > lim {
		return fmt.Errorf("%d of %d cells disagree with the analysis beyond their 95%% interval plus 1%%; a correct run has at most %d",
			outside, len(sets[0].Cells), lim)
	}
	checked, beats := 0, 0
	for p, cells := range byPoint {
		if p.muI < p.muE {
			continue
		}
		checked++
		ifc, efc := cells["IF"], cells["EF"]
		if efc.ET < ifc.ET-math.Hypot(ifc.ETCI, efc.ETCI) {
			beats++
		}
		mIF, hIF := repCI(ifc, ceilingT)
		mEF, hEF := repCI(efc, ceilingT)
		if mEF < mIF-math.Hypot(hIF, hEF) {
			return fmt.Errorf("Theorem 5 violated at %+v: EF %.5f beats IF %.5f beyond the 99.999%% intervals", p, mEF, mIF)
		}
	}
	if lim := maxOutside(checked, 0.05); beats > lim {
		return fmt.Errorf("Theorem 5: EF significantly beats IF at %d of %d points with muI >= muE; a correct run has at most %d", beats, checked, lim)
	}
	fmt.Printf("paper-grid: %d of %d cells outside their 95%% CI plus 1%% of the analysis (limit %d); EF significantly beats IF at %d of %d Theorem 5 points (limit %d)\n",
		outside, len(sets[0].Cells), maxOutside(len(sets[0].Cells), 0.05), beats, checked, maxOutside(checked, 0.05))
	return nil
}

// checkStable requires every cell to be stable: utilization tracks the
// offered load instead of saturating.
func checkStable(sets []*exp.ResultSet) error {
	for _, rs := range sets {
		for _, cr := range rs.Cells {
			if lim := math.Min(0.995, cr.Cell.Rho+0.025); !(cr.Util < lim) || !(cr.EN > 0) || math.IsInf(cr.EN, 0) {
				return fmt.Errorf("cell %v is not stable: utilization %.4f (limit %.4f), E[N] %.2f", cr.Cell, cr.Util, lim, cr.EN)
			}
		}
	}
	return nil
}

// checkSeries adds the series options' outputs to the stability check:
// a batch-means CI, an effective sample size and ordered tail quantiles.
func checkSeries(sets []*exp.ResultSet) error {
	if err := checkStable(sets); err != nil {
		return err
	}
	for _, rs := range sets {
		for _, cr := range rs.Cells {
			for _, r := range cr.Reps {
				if !(r.BatchCI > 0) || !(r.ESS > 0) {
					return fmt.Errorf("cell %v rep %d: batch CI %g, ESS %g", cr.Cell, r.Rep, r.BatchCI, r.ESS)
				}
			}
			if len(cr.Quantiles) != len(rs.Sweep.TailQuantiles) {
				return fmt.Errorf("cell %v: %d quantiles, the spec %d", cr.Cell, len(cr.Quantiles), len(rs.Sweep.TailQuantiles))
			}
			for i := 1; i < len(cr.Quantiles); i++ {
				if !(cr.Quantiles[i] >= cr.Quantiles[i-1]) {
					return fmt.Errorf("cell %v: quantiles not ordered: %v", cr.Cell, cr.Quantiles)
				}
			}
		}
	}
	return nil
}
