// Command perfbench is the repository's end-to-end benchmark. It drives the
// real commands (simulate, fabricd, resultd, psq), built from the checkout
// by run.sh, with inputs generated from a seed, checks that their outputs
// are correct, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 a separate traced run times calls into the layers'
// public functions from this package's own code and reports per-layer
// metrics; its spans are kept in memory and written to .bench_build/ when
// the run ends.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare runs-parent runs-change
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and collects its output.
type bench struct {
	root     string // checkout root
	bin      string // built commands
	work     string // this run's scratch directory
	workload string
	seed     uint64
	seconds  float64
	slots    int // worker slots and load-driving goroutines: nproc

	attempted, failed int64
	metrics           map[string]metric
	tr                *tracer // nil in untraced runs
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-36s %14.6g %s\n", name, v, unit)
}

// timing reports a latency sample set: its median as the metric, plus the
// sample count and the highest percentile that has at least ten samples
// beyond it.
func (b *bench) timing(name string, samples []float64, unit string) {
	v := median(samples)
	b.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-36s %14.6g %s  (n=%d, %s)\n", name, v, unit, len(samples), tailNote(samples))
}

// tails prints a latency sample set's tail: its sample count and the
// highest percentile with at least ten samples beyond it.
func tails(what string, samples []float64) {
	fmt.Printf("  %s latency (ms): n=%d, p90=%.6g, %s\n", what, len(samples), quantile(samples, 0.9), tailNote(samples))
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the repository checkout")
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two directories of saved run outputs: -compare <parent-dir> <change-dir>")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two directories of saved run outputs")
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown -workload %q (want %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		root:     abs,
		bin:      filepath.Join(abs, ".bench_build", "bin"),
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		slots:    runtime.NumCPU(),
		metrics:  map[string]metric{},
	}
	for _, cmd := range []string{"simulate", "fabricd", "resultd", "psq"} {
		if _, err := os.Stat(filepath.Join(b.bin, cmd)); err != nil {
			fatalf("command %s is not built (run through perfbench/run.sh): %v", cmd, err)
		}
	}
	b.work, err = os.MkdirTemp(filepath.Join(abs, ".bench_build"), "run-")
	if err != nil {
		fatalf("%v", err)
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	fmt.Printf("perfbench: workload %s, seed %d, %gs measured, trace %d, %d slots\n",
		b.workload, b.seed, b.seconds, *trace, b.slots)

	// A run stopped from outside still stops and waits for its children.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(b.work)
		fatalf("%s: interrupted", b.workload)
	}()

	err = run(b)
	stopAll()
	if b.tr != nil && err == nil {
		err = b.tr.write(filepath.Join(abs, ".bench_build", fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed)))
	}
	os.RemoveAll(b.work)
	if err != nil {
		fatalf("%s: %v", b.workload, err)
	}
	if b.attempted < 1 {
		fatalf("%s: no operations attempted", b.workload)
	}
	out, err := json.Marshal(result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// fatalf reports a failure on standard error and exits non-zero without
// printing a result line.
func fatalf(format string, args ...any) {
	stopAll()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) error{
	"paper-grid":     runSweepWorkload,
	"high-occupancy": runSweepWorkload,
	"series-ci":      runSweepWorkload,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Child processes. Every process the benchmark starts is registered here so
// that it is stopped and waited for on every exit path.

type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // Wait's error, valid once done is closed
}

var (
	childMu  sync.Mutex
	children = map[*child]bool{} // running
)

// start launches a command with its standard output and error in out and
// registers it, so that every exit path stops it.
func start(name string, out io.Writer, argv ...string) (*child, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{})}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		c.err = cmd.Wait()
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// startLogged is start with the output in a log file.
func startLogged(name, logPath string, argv ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	c, err := start(name, logf, argv...)
	if err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		<-c.done
		logf.Close()
	}()
	return c, nil
}

// stop interrupts the process, kills it if it has not exited after a grace
// period, and waits for it.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

func stopAll() {
	childMu.Lock()
	var cs []*child
	for c := range children {
		cs = append(cs, c)
	}
	childMu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// runOnce runs a command to completion and returns its wall time and
// resource usage. Standard output goes to stdout when non-nil.
func runOnce(stdout io.Writer, argv ...string) (wall time.Duration, ru *syscall.Rusage, err error) {
	var out strings.Builder
	if stdout == nil {
		stdout = &out
	}
	t0 := time.Now()
	c, err := start(filepath.Base(argv[0]), stdout, argv...)
	if err != nil {
		return 0, nil, err
	}
	<-c.done
	wall = time.Since(t0)
	if c.err != nil {
		return wall, nil, fmt.Errorf("%s: %v: %s", c.name, c.err, strings.TrimSpace(out.String()))
	}
	ru, _ = c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return wall, nil, fmt.Errorf("%s: no resource usage available", c.name)
	}
	return wall, ru, nil
}

func cpuOf(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Sample statistics.

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty set).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(median(xs))
}

// tailNote names the highest percentile with at least ten samples beyond
// it, and its value.
func tailNote(xs []float64) string {
	best := ""
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if float64(len(xs))*(1-p/100) >= 10 {
			best = fmt.Sprintf("p%g=%.6g", p, quantile(xs, p/100))
		}
	}
	if best == "" {
		return "no percentile has 10 samples beyond it"
	}
	return best
}
