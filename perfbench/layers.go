package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The traced run. Per-layer numbers come from timing calls into each
// layer's public functions, on the workload's own cells, seeds and tasks.

// layerNames lists every per-layer metric with its unit, in print order.
var layerNames = []struct{ name, unit string }{
	{"workload.ns_per_arrival", "ns"}, {"workload.busy_share", "share"},
	{"sim.ns_per_job", "ns"}, {"sim.busy_share", "share"}, {"sim.mean_jobs", "jobs"},
	{"stats.series_us_per_rep", "us"}, {"stats.busy_share", "share"},
	{"exp.tasks", "count"}, {"exp.task_ms_p50", "ms"}, {"exp.task_busy_s", "s"}, {"exp.other_share", "share"},
	{"exp.aggregate_us_per_result", "us"}, {"exp.filecache_put_us", "us"},
	{"exp.pool_overhead_us_per_task", "us"}, {"exp.proc_overhead_us_per_task", "us"}, {"fabric.overhead_us_per_task", "us"},
	{"wire.bytes_per_task", "bytes"}, {"wire.encode_ns_per_frame", "ns"}, {"wire.decode_ns_per_frame", "ns"},
	{"fabric.journal_bytes_per_task", "bytes"}, {"fabric.cache_bytes_per_task", "bytes"},
	{"fabric.requeues", "count"}, {"fabric.deadline_expiries", "count"},
	{"serve.hit_handler_us", "us"}, {"serve.hit_share", "share"}, {"serve.coalesced_share", "share"},
	{"serve.rejected_share", "share"}, {"lru.evictions", "count"},
	{"loadgen.sent", "count"}, {"loadgen.lag_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
	{"loadgen.hit_p50_ms", "ms"}, {"loadgen.hit_p99_ms", "ms"}, {"loadgen.miss_p50_ms", "ms"}, {"loadgen.miss_p90_ms", "ms"},
	{"runtime.alloc_bytes_per_job", "bytes"}, {"runtime.gc_cpu_share", "share"},
	{"trace.overhead_share", "share"},
}

// layerValues collects per-layer values; layers a workload leaves idle stay 0.
type layerValues map[string]float64

// report sets every per-layer metric, in a fixed order.
func (b *bench) report(v layerValues) {
	for _, l := range layerNames {
		b.set(l.name, v[l.name], l.unit)
	}
	b.tr.printSelf()
}

// traceSweep is the traced run of a sweep workload.
func (b *bench) traceSweep(def sweepDef) error {
	req, err := b.runSweep(def)
	if err != nil {
		return err
	}
	sets, _, _, err := countWork(req.out)
	if err != nil {
		return err
	}
	if err := checkCounts(sets); err != nil {
		return err
	}
	if err := def.check(sets); err != nil {
		return err
	}
	var sweeps []exp.Sweep
	for _, rs := range sets {
		sweeps = append(sweeps, rs.Sweep)
	}
	v := layerValues{}
	if err := b.inProcess(v, sweeps, req.out); err != nil {
		return err
	}
	if err := b.serialLayers(v, sweeps); err != nil {
		return err
	}
	if def.serving {
		if err := b.serveLayers(v); err != nil {
			return err
		}
	}
	b.report(v)
	return nil
}

// simulateWall runs simulate once with the given flags and returns its wall
// time.
func (b *bench) simulateWall(flags []string) (time.Duration, error) {
	b.attempted++
	wall, _, err := runOnce(nil, append([]string{filepath.Join(b.bin, "simulate")}, flags...)...)
	if err != nil {
		b.failed++
	}
	return wall, err
}

// overheadPerTask is the dispatch overhead of a run that executed tasks on
// slots in parallel: slot time not spent executing, per task, in µs.
func overheadPerTask(wall time.Duration, slots int, exec time.Duration, tasks float64) float64 {
	return float64((wall*time.Duration(slots) - exec).Microseconds()) / tasks
}

// emitTimer is an exp.Backend that wraps another and times the emit
// callback — the experiment layer's aggregation of each result.
type emitTimer struct {
	inner  exp.Backend
	tr     *tracer
	parent int
}

func (e emitTimer) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	return e.inner.Submit(ctx, env, tasks, func(r exp.TaskResult) error {
		id := e.tr.begin("exp.emit", e.parent)
		err := emit(r)
		e.tr.end(id)
		return err
	})
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// inProcess runs each sweep in this process on the pool, untraced, traced
// (emit timed, runtime metrics read around it) and untraced again. Every
// run's bytes must equal simulate -json's. It sets the aggregation, runtime
// and tracing-overhead metrics and fills the file cache from the results.
func (b *bench) inProcess(v layerValues, sweeps []exp.Sweep, refs [][]byte) error {
	ctx := context.Background()
	pool := exp.PoolBackend{Workers: b.slots}
	var plain, traced time.Duration
	var jobs int64
	delta := make([]float64, len(runtimeSamples)) // runtime readings over the traced runs
	var start []float64
	var results []*exp.ResultSet
	for i, sw := range sweeps {
		for pass := 0; pass < 3; pass++ {
			opt := exp.Options{Backend: pool}
			tracedPass := pass == 1
			var root int
			if tracedPass {
				root = b.tr.begin("exp.Run", 0)
				opt.Backend = emitTimer{inner: pool, tr: b.tr, parent: root}
				start = readRuntime()
			}
			t0 := time.Now()
			rs, err := exp.Run(ctx, sw, opt)
			d := time.Since(t0)
			if tracedPass {
				b.tr.end(root)
				for j, x := range readRuntime() {
					delta[j] += x - start[j]
				}
				traced += d
			} else {
				plain += d / 2
			}
			if err != nil {
				return fmt.Errorf("in-process sweep: %w", err)
			}
			var buf bytes.Buffer
			if err := rs.WriteJSON(&buf); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), refs[i]) {
				return fmt.Errorf("in-process sweep %d: bytes differ from simulate -json", i)
			}
			if tracedPass {
				results = append(results, rs)
				for _, cr := range rs.Cells {
					for _, r := range cr.Reps {
						jobs += r.Completions + int64(r.Trimmed)
					}
				}
			}
		}
	}
	emits := b.tr.durations("exp.emit")
	v["exp.aggregate_us_per_result"] = float64(b.tr.total("exp.emit").Nanoseconds()) / 1e3 / float64(len(emits))
	v["runtime.alloc_bytes_per_job"] = delta[0] / float64(jobs)
	if delta[2] > 0 {
		v["runtime.gc_cpu_share"] = delta[1] / delta[2]
	}
	v["trace.overhead_share"] = traced.Seconds()/plain.Seconds() - 1
	return b.fileCachePuts(v, results)
}

// fileCachePuts times exp.FileCache.Put, fsync included, for every cell
// result of the workload.
func (b *bench) fileCachePuts(v layerValues, results []*exp.ResultSet) error {
	fc, err := exp.OpenFileCache(filepath.Join(b.work, "layer-cells.jsonl"))
	if err != nil {
		return err
	}
	n := 0
	for _, rs := range results {
		for _, cr := range rs.Cells {
			id := b.tr.begin("exp.FileCache.Put", 0)
			err := fc.Put(rs.Sweep.Key(cr.Cell), cr)
			b.tr.end(id)
			if err != nil {
				fc.Close()
				return err
			}
			n++
		}
	}
	v["exp.filecache_put_us"] = float64(b.tr.total("exp.FileCache.Put").Nanoseconds()) / 1e3 / float64(n)
	return fc.Close()
}

// cellInputs builds a cell's classes, policy and arrival source from the
// layers' public constructors, the way the experiment layer does.
func cellInputs(c exp.Cell, seed uint64) ([]sim.ClassSpec, sim.Policy, sim.ArrivalSource, error) {
	if c.Mix != "" {
		m, err := workload.MixByName(c.Mix, c.K, c.Rho)
		if err != nil {
			return nil, nil, nil, err
		}
		pol, err := core.PolicyByName(c.Policy, 0, 0)
		return m.Classes, pol, m.Source(seed), err
	}
	if c.Scenario != "" {
		return nil, nil, nil, fmt.Errorf("cell %v: scenario cells are not part of any workload", c)
	}
	model := workload.ModelForLoad(c.K, c.Rho, c.MuI, c.MuE)
	classes := sim.TwoClassSpecs()
	classes[0].Lambda, classes[0].Size = model.LambdaI, dist.NewExponential(c.MuI)
	classes[1].Lambda, classes[1].Size = model.LambdaE, dist.NewExponential(c.MuE)
	pol, err := core.PolicyByName(c.Policy, c.MuI, c.MuE)
	return classes, pol, model.Source(seed), err
}

// countingSource counts the arrivals a run consumes.
type countingSource struct {
	src sim.ArrivalSource
	n   int64
}

func (s *countingSource) Next() (sim.Arrival, bool) {
	s.n++
	return s.src.Next()
}

// serialLayers executes every task of the sweeps serially with
// exp.ExecuteTask, and for each task also times the workload, sim and stats
// layers on their own: drawing the task's arrivals, sim.Run over them as a
// pre-generated slice, and the series statistics over the series
// sim.RunObserved records. It also times the wire codec on the tasks and
// outcomes.
func (b *bench) serialLayers(v layerValues, sweeps []exp.Sweep) error {
	var frames []any
	var arrivals, simJobs, tasks int64
	var meanN float64
	var genUsed time.Duration
	for _, sw := range sweeps {
		list, err := sw.Tasks()
		if err != nil {
			return err
		}
		env := exp.Env{Sweep: &sw}
		warmup := sw.Warmup
		if sw.AutoWarmup {
			warmup = 0
		}
		for _, task := range list {
			root := b.tr.begin("layers.task", 0)
			id := b.tr.begin("exp.ExecuteTask", root)
			out, err := exp.ExecuteTask(env, task)
			b.tr.end(id)
			if err != nil {
				return err
			}
			frames = append(frames, task, out)

			classes, pol, src, err := cellInputs(task.Sim.Cell, task.Sim.Seed)
			if err != nil {
				return err
			}
			n := (warmup+sw.Jobs)*11/10 + 2000
			trace := make([]sim.Arrival, n)
			id = b.tr.begin("workload.Next", root)
			for i := range trace {
				trace[i], _ = src.Next()
			}
			gen := b.tr.end(id)
			cfg := sim.RunConfig{K: task.Sim.Cell.K, Policy: pol, Classes: classes, WarmupJobs: warmup, MaxJobs: sw.Jobs}
			cs := &countingSource{src: &sim.SliceSource{Arrivals: trace}}
			cfg.Source = cs
			id = b.tr.begin("sim.Run", root)
			res := sim.Run(cfg)
			b.tr.end(id)
			if err := sameReplication(sw, res, out); err != nil {
				return fmt.Errorf("%s: %w", task.Label(), err)
			}
			// Charge generation only for the arrivals the run consumed.
			arrivals += cs.n
			genUsed += gen * time.Duration(cs.n) / time.Duration(n)
			simJobs += res.Completions + warmup
			meanN += res.MeanN
			tasks++

			if sw.AutoWarmup || sw.Batches > 1 {
				if err := b.seriesStats(sw, task, root); err != nil {
					return err
				}
			}
			b.tr.end(root)
		}
	}
	exec := b.tr.total("exp.ExecuteTask")
	gen, run, st := genUsed, b.tr.total("sim.Run"), b.tr.total("stats.series")
	v["workload.ns_per_arrival"] = float64(gen.Nanoseconds()) / float64(arrivals)
	v["workload.busy_share"] = gen.Seconds() / exec.Seconds()
	v["sim.ns_per_job"] = float64(run.Nanoseconds()) / float64(simJobs)
	v["sim.busy_share"] = run.Seconds() / exec.Seconds()
	v["sim.mean_jobs"] = meanN / float64(tasks)
	v["stats.series_us_per_rep"] = float64(st.Nanoseconds()) / 1e3 / float64(tasks)
	v["stats.busy_share"] = st.Seconds() / exec.Seconds()
	v["exp.tasks"] = float64(tasks)
	var ms []float64
	for _, d := range b.tr.durations("exp.ExecuteTask") {
		ms = append(ms, d.Seconds()*1e3)
	}
	v["exp.task_ms_p50"] = median(ms)
	v["exp.task_busy_s"] = exec.Seconds()
	v["exp.other_share"] = 1 - (gen+run+st).Seconds()/exec.Seconds()
	return wireCodec(v, frames, tasks)
}

// sameReplication checks that the timed sim.Run simulated the replication
// exp.ExecuteTask did. Without series options the task is that very run, so
// E[T] and completions must be equal; with them the task trims the series
// itself, and the timed run must at least not have run out of arrivals.
func sameReplication(sw exp.Sweep, res sim.Result, out exp.Outcome) error {
	if out.Rep == nil {
		return fmt.Errorf("exp.ExecuteTask returned no replication")
	}
	if sw.AutoWarmup || sw.Batches > 1 {
		if res.Completions < sw.Jobs {
			return fmt.Errorf("timed sim.Run ran out of arrivals after %d of %d completions", res.Completions, sw.Jobs)
		}
		return nil
	}
	if res.MeanT != out.Rep.MeanT || res.Completions != out.Rep.Completions {
		return fmt.Errorf("timed sim.Run gave E[T] %v over %d completions, exp.ExecuteTask %v over %d",
			res.MeanT, res.Completions, out.Rep.MeanT, out.Rep.Completions)
	}
	return nil
}

// seriesStats records the task's response series with sim.RunObserved
// (untimed) and times the stats layer on it.
func (b *bench) seriesStats(sw exp.Sweep, task exp.Task, parent int) error {
	classes, pol, src, err := cellInputs(task.Sim.Cell, task.Sim.Seed)
	if err != nil {
		return err
	}
	series := make([]float64, 0, sw.Jobs)
	sim.RunObserved(sim.RunConfig{K: task.Sim.Cell.K, Policy: pol, Classes: classes, Source: src, MaxJobs: sw.Jobs},
		func(c sim.Completion) { series = append(series, c.Response()) })
	id := b.tr.begin("stats.series", parent)
	defer b.tr.end(id)
	trim := 0
	if sw.AutoWarmup {
		trim = stats.MSER5Trim(series)
	}
	tail := series[trim:]
	if stats.EffectiveSampleSize(tail) <= 0 {
		return fmt.Errorf("%s: effective sample size not positive", task.Label())
	}
	if sw.Batches > 1 {
		if _, err := stats.BatchMeans(tail, sw.Batches); err != nil {
			return err
		}
	}
	return nil
}

// wireCodec times wire.WriteFrame and wire.ReadFrame on the workload's
// tasks and outcomes, repeating the pass until it has run for 200 ms, and
// checks that every frame decodes to the value encoded.
func wireCodec(v layerValues, frames []any, tasks int64) error {
	var enc, dec time.Duration
	var passes int
	var size int
	for passes == 0 || enc+dec < 200*time.Millisecond {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		t0 := time.Now()
		for _, f := range frames {
			if err := wire.WriteFrame(w, f); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		enc += time.Since(t0)
		size = buf.Len()
		encoded := append([]byte(nil), buf.Bytes()...)
		r := bufio.NewReader(&buf)
		t0 = time.Now()
		decoded := make([]any, len(frames))
		for i, f := range frames {
			var err error
			switch f.(type) {
			case exp.Task:
				var t exp.Task
				err = wire.ReadFrame(r, &t)
				decoded[i] = t
			case exp.Outcome:
				var o exp.Outcome
				err = wire.ReadFrame(r, &o)
				decoded[i] = o
			}
			if err != nil {
				return fmt.Errorf("wire: frame %d: %w", i, err)
			}
		}
		dec += time.Since(t0)
		if passes == 0 {
			var again bytes.Buffer
			w := bufio.NewWriter(&again)
			for _, d := range decoded {
				if err := wire.WriteFrame(w, d); err != nil {
					return err
				}
			}
			w.Flush()
			if !bytes.Equal(again.Bytes(), encoded) {
				return fmt.Errorf("wire: frames do not round-trip")
			}
		}
		passes++
	}
	n := float64(passes * len(frames))
	v["wire.bytes_per_task"] = float64(size) / float64(tasks)
	v["wire.encode_ns_per_frame"] = float64(enc.Nanoseconds()) / n
	v["wire.decode_ns_per_frame"] = float64(dec.Nanoseconds()) / n
	return nil
}

// Helpers shared with the serving workload.

func readJSONFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
