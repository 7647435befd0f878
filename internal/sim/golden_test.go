package sim_test

// Frozen, bit-exact engine output on fixed input. Two golden sets replay
// the same 3000-arrival two-class trace, testdata/golden_arrivals.txt:
//
//   - golden_trace_* pin the rebuild reference engine (sim.RefSystem). The
//     files were generated by the pre-unification two-class engine, and
//     the reference must reproduce every bit of them.
//   - golden_inc_trace_* pin the production engine (sim.System), which is
//     deterministic but rounds differently from the reference: it does not
//     re-derive completion times at every event, and that per-event
//     re-derivation is the O(n) cost it removes. Agreement between the two
//     engines is pinned separately, to 1e-9, by engine_equiv_test.go.
//
// The trace is frozen input, not output: it holds the first 3000 arrivals
// of workload.ModelForLoad(4, 0.8, 1.5, 1).Trace(11, ·) as drawn by the
// inversion exponential sampler that preceded the ziggurat, one arrival a
// line (time, class, size; floats in hex). Keeping it as data means a
// change to the variate layer cannot move these goldens: they pin the
// engines alone. -update never rewrites it.
//
// Regenerate the goldens with
//
//	go test ./internal/sim -run 'TestGolden' -update
//
// only when an intentional semantic change to an engine is being made, and
// say so loudly in the change description. TestGoldenIncrementalRunPipeline
// draws from the live workload source, so it also follows the random
// stream: a change to internal/xrand's output regenerates it, and only it.

import (
	"bufio"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from the current engine")

// goldenPolicies are the policies frozen in the trace goldens. THRESH:2 and
// EQUI exercise fractional allocations; DEFER exercises idling; SRPT
// exercises size-aware ordering.
var goldenPolicies = []string{"IF", "EF", "FCFS", "EQUI", "DEFER", "SRPT", "THRESH:2"}

// hex encodes a float64 exactly (bit-for-bit) as a parseable string.
func hex(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

type goldenCompletion struct {
	ID       int    `json:"id"`
	Class    int    `json:"class"`
	Finished string `json:"finished"`
}

type goldenTrace struct {
	Policy      string             `json:"policy"`
	Completions []goldenCompletion `json:"completions"`
	MeanT       string             `json:"meanT"`
	MeanTI      string             `json:"meanTI"`
	MeanTE      string             `json:"meanTE"`
	MeanN       string             `json:"meanN"`
	MeanW       string             `json:"meanW"`
	Utilization string             `json:"utilization"`
	Count       int64              `json:"count"`
}

// goldenTracePrefix bounds the per-completion detail kept in the files; the
// aggregate statistics still cover the full run.
const goldenTracePrefix = 256

// stepper is the stepping surface shared by the production engine and the
// rebuild reference, so one trace runner serves both.
type stepper interface {
	Arrive(a sim.Arrival) *sim.Job
	AdvanceTo(t float64) []sim.Completion
	Drain(horizon float64) []sim.Completion
	NextEventTime() float64
	Metrics() *sim.Metrics
	NumJobs() int
}

// newStepper builds an empty system of one engine.
type newStepper func(k int, classes []sim.ClassSpec, pol sim.Policy) stepper

func newSystem(k int, classes []sim.ClassSpec, pol sim.Policy) stepper {
	return sim.NewClassSystem(k, classes, pol)
}

func newRefSystem(k int, classes []sim.ClassSpec, pol sim.Policy) stepper {
	return sim.NewRefSystem(k, classes, pol)
}

func computeGoldenTrace(t *testing.T, polName string, mk newStepper) goldenTrace {
	t.Helper()
	model := workload.ModelForLoad(4, 0.8, 1.5, 1.0)
	pol, err := core.System{K: 4, LambdaI: model.LambdaI, LambdaE: model.LambdaE,
		MuI: model.MuI, MuE: model.MuE}.PolicyByName(polName)
	if err != nil {
		t.Fatal(err)
	}
	trace := goldenArrivals(t)
	sys := mk(4, sim.TwoClassSpecs(), pol)
	g := goldenTrace{Policy: polName}
	record := func(done []sim.Completion) {
		for _, c := range done {
			if len(g.Completions) < goldenTracePrefix {
				g.Completions = append(g.Completions, goldenCompletion{
					ID: c.Job.ID, Class: int(c.Job.Class), Finished: hex(c.Finished),
				})
			}
		}
	}
	for _, a := range trace {
		record(sys.AdvanceTo(a.Time))
		sys.Arrive(a)
	}
	record(sys.Drain(math.Inf(1)))
	m := sys.Metrics()
	g.MeanT = hex(m.MeanResponseAll())
	g.MeanTI = hex(m.MeanResponse(sim.Inelastic))
	g.MeanTE = hex(m.MeanResponse(sim.Elastic))
	g.MeanN = hex(m.MeanJobsAll())
	g.MeanW = hex(m.MeanWorkAll())
	g.Utilization = hex(m.Utilization(4))
	g.Count = m.TotalCompletions()
	return g
}

// goldenArrivalsFile is the frozen input trace every trace golden replays.
const goldenArrivalsFile = "golden_arrivals.txt"

// goldenArrivals reads the frozen input trace; see the file comment.
func goldenArrivals(t *testing.T) []sim.Arrival {
	t.Helper()
	f, err := os.Open(goldenPath(goldenArrivalsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []sim.Arrival
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s line %d: want 3 fields, got %q", goldenArrivalsFile, len(out)+1, sc.Text())
		}
		tm, err1 := strconv.ParseFloat(fields[0], 64)
		class, err2 := strconv.Atoi(fields[1])
		size, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s line %d: %q does not parse", goldenArrivalsFile, len(out)+1, sc.Text())
		}
		out = append(out, sim.Arrival{Time: tm, Class: sim.Class(class), Size: size})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update): %v", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTwoClassTraces replays the frozen trace under each policy on
// the rebuild reference engine and demands bit-identical completion
// sequences and aggregate statistics against the pre-refactor engine.
func TestGoldenTwoClassTraces(t *testing.T) {
	checkGoldenTraces(t, "golden_trace_", newRefSystem)
}

// TestGoldenIncrementalTraces replays the same trace on the production
// engine against its own golden set.
func TestGoldenIncrementalTraces(t *testing.T) {
	checkGoldenTraces(t, "golden_inc_trace_", newSystem)
}

// checkGoldenTraces runs every golden policy on one engine and diffs the
// completion prefix and aggregate statistics bit for bit against the
// prefix-named golden files.
func checkGoldenTraces(t *testing.T, prefix string, mk newStepper) {
	for _, polName := range goldenPolicies {
		t.Run(polName, func(t *testing.T) {
			got := computeGoldenTrace(t, polName, mk)
			name := prefix + sanitize(polName) + ".json"
			if *update {
				writeGolden(t, name, got)
				return
			}
			var want goldenTrace
			readGolden(t, name, &want)
			if got.Count != want.Count {
				t.Fatalf("completions: got %d, want %d", got.Count, want.Count)
			}
			for _, pair := range [][3]string{
				{"MeanT", got.MeanT, want.MeanT},
				{"MeanTI", got.MeanTI, want.MeanTI},
				{"MeanTE", got.MeanTE, want.MeanTE},
				{"MeanN", got.MeanN, want.MeanN},
				{"MeanW", got.MeanW, want.MeanW},
				{"Utilization", got.Utilization, want.Utilization},
			} {
				if pair[1] != pair[2] {
					t.Errorf("%s: got %s, want %s", pair[0], pair[1], pair[2])
				}
			}
			if len(got.Completions) != len(want.Completions) {
				t.Fatalf("trace prefix length: got %d, want %d", len(got.Completions), len(want.Completions))
			}
			for i := range want.Completions {
				if got.Completions[i] != want.Completions[i] {
					t.Fatalf("completion %d: got %+v, want %+v", i, got.Completions[i], want.Completions[i])
				}
			}
		})
	}
}

// TestGoldenIncrementalRunPipeline freezes the warmup/measurement loop
// output (the path exp and the cmds use): sim.Run with a warmup budget on
// the stochastic two-class model.
func TestGoldenIncrementalRunPipeline(t *testing.T) {
	type cell struct {
		Policy      string `json:"policy"`
		MuI         string `json:"muI"`
		MeanT       string `json:"meanT"`
		MeanTI      string `json:"meanTI"`
		MeanTE      string `json:"meanTE"`
		MeanN       string `json:"meanN"`
		Completions int64  `json:"completions"`
	}
	var got []cell
	for _, muI := range []float64{0.5, 2.0} {
		for _, polName := range []string{"IF", "EF"} {
			model := workload.ModelForLoad(4, 0.7, muI, 1.0)
			pol, err := core.System{K: 4, LambdaI: model.LambdaI, LambdaE: model.LambdaE,
				MuI: model.MuI, MuE: model.MuE}.PolicyByName(polName)
			if err != nil {
				t.Fatal(err)
			}
			res := sim.Run(sim.RunConfig{
				K: 4, Policy: pol, Source: model.Source(7),
				WarmupJobs: 1000, MaxJobs: 10_000,
			})
			got = append(got, cell{
				Policy: polName, MuI: hex(muI),
				MeanT: hex(res.MeanT), MeanTI: hex(res.MeanTI), MeanTE: hex(res.MeanTE),
				MeanN: hex(res.MeanN), Completions: res.Completions,
			})
		}
	}
	const name = "golden_inc_run_cells.json"
	if *update {
		writeGolden(t, name, got)
		return
	}
	var want []cell
	readGolden(t, name, &want)
	if len(got) != len(want) {
		t.Fatalf("cells: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z', r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
