package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
)

// The serving stack's layers: resultd -backend fabric in front of a local
// fabricd dispatcher (journal and outcome cache on temp files) and one
// worker with nproc slots, driven by an open-loop POST stream. Its
// end-to-end wall times moved by 25-40% between runs of the same code on a
// shared 2-core machine, so it is measured in a traced run only.

// The stream's rates are not fixed numbers: they follow from service times
// the run measures on the started stack, closed loop, just before the
// stream, and from these targets.
const (
	// hitUtil is the share of time the hit connection is busy with hits.
	// At 0.1 a hit waits on average 0.056 service times behind the one
	// before it (M/D/1), so hit latency reads the hit path and the misses
	// beside it, not the generator's connection limit.
	hitUtil = 0.1
	// missUtil is the share of time the stack computes misses: half of all
	// hits arrive while a computation runs and half while the stack is
	// otherwise idle, so the hit tail shows the interference.
	missUtil = 0.5
	// burstShare is the share of computations that arrive as a burst of two
	// identical requests, which coalesce into one computation.
	burstShare = 0.2
	// quietMisses is how long, in closed-loop miss service times, no hit is
	// due after a burst, while the burst's member occupies the hit
	// connection: under the stream's load a miss's p90 latency is about two
	// closed-loop service times.
	quietMisses = 3
	// hotSpecs is the number of specs hits draw from, far below resultd's
	// default response LRU (16384 entries), so every hit is resident.
	hotSpecs = 8
	// calibHits and calibMisses are the closed-loop requests that measure
	// the hit and miss service times.
	calibHits   = 400
	calibMisses = 5
	// servePhase is the length of the traced open-loop stream.
	servePhase = 6 * time.Second
	// sleepSlack is how far short of a due time the generator stops
	// sleeping and starts spinning.
	sleepSlack = 200 * time.Microsecond
)

// spec is one distinct sweep spec of the stream.
type spec struct {
	flags []string
	body  []byte // the "sweep" object of simulate -json: the POST body
	ref   []byte // simulate -json's bytes: what resultd must serve
	jobs  int64  // measured completions the spec computes
	tasks int64
}

// specFor runs simulate -json for flags and turns its output into a spec.
func (b *bench) specFor(flags []string) (spec, error) {
	path := filepath.Join(b.work, "spec.json")
	b.attempted++
	if _, _, err := runOnce(nil, append(append([]string{filepath.Join(b.bin, "simulate")}, flags...), "-json", path)...); err != nil {
		b.failed++
		return spec{}, err
	}
	out, err := os.ReadFile(path)
	if err != nil {
		return spec{}, err
	}
	var raw struct {
		Sweep json.RawMessage `json:"sweep"`
	}
	if err := json.Unmarshal(out, &raw); err != nil {
		return spec{}, err
	}
	sets, tasks, jobs, err := countWork([][]byte{out})
	if err != nil {
		return spec{}, err
	}
	if err := checkCounts(sets); err != nil {
		return spec{}, err
	}
	return spec{flags: flags, body: raw.Sweep, ref: out, jobs: jobs, tasks: tasks}, nil
}

func hotFlags(i int, seed uint64) []string {
	mus := []string{"0.5", "1", "2", "3"}
	return []string{"-k", "4", "-rho", "0.6", "-muI", mus[i%4], "-muE", mus[(i/4+1)%4], "-policy", "IF",
		"-reps", "2", "-jobs", "2000", "-warmup", "200", "-seed", strconv.FormatUint(seed, 10)}
}

// missFlags is a fine-grained spec: 40 replications of ~1k jobs, so its
// miss path is dominated by dispatch, wire and journal cost.
func missFlags(seed uint64) []string {
	return []string{"-k", "4", "-rho", "0.7", "-muI", "1,2", "-muE", "1", "-policy", "IF,EF",
		"-reps", "10", "-jobs", "1000", "-warmup", "100", "-seed", strconv.FormatUint(seed, 10)}
}

// stack is one running resultd + fabricd dispatcher + fabricd worker.
type stack struct {
	dir                      string
	disp, worker, resultd    *child
	dispAddr, url            string
	journal, outcomes, cells string
}

func (s *stack) stop() {
	for _, c := range []*child{s.resultd, s.worker, s.disp} {
		if c != nil {
			c.stop()
		}
	}
}

func waitFile(path string, c *child) (string, error) {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 && b[len(b)-1] == '\n' {
			return strings.TrimSpace(string(b)), nil
		}
		if !c.alive() {
			return "", fmt.Errorf("%s exited during start-up: %v", c.name, c.err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "", fmt.Errorf("%s did not publish its address", c.name)
}

// startStack launches the three daemons and returns once they are ready:
// resultd answers /healthz, the dispatcher reports every worker slot
// registered (psq stats), and the hot specs have been computed once.
func (b *bench) startStack(hot []spec, client *http.Client) (*stack, error) {
	s := &stack{dir: filepath.Join(b.work, "stack")}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	s.journal = filepath.Join(s.dir, "journal.jsonl")
	s.outcomes = filepath.Join(s.dir, "outcomes.jsonl")
	s.cells = filepath.Join(s.dir, "cells.jsonl")
	fabricd := filepath.Join(b.bin, "fabricd")
	var err error
	if s.disp, err = startLogged("fabricd dispatcher", filepath.Join(s.dir, "dispatcher.log"), fabricd, "-role", "dispatcher",
		"-listen", "127.0.0.1:0", "-addr-file", filepath.Join(s.dir, "disp.addr"),
		"-journal", s.journal, "-cache", s.outcomes); err != nil {
		return s, err
	}
	if s.dispAddr, err = waitFile(filepath.Join(s.dir, "disp.addr"), s.disp); err != nil {
		return s, err
	}
	if s.worker, err = startLogged("fabricd worker", filepath.Join(s.dir, "worker.log"), fabricd, "-role", "worker",
		"-dispatcher", s.dispAddr, "-slots", strconv.Itoa(b.slots)); err != nil {
		return s, err
	}
	if s.resultd, err = startLogged("resultd", filepath.Join(s.dir, "resultd.log"), filepath.Join(b.bin, "resultd"),
		"-listen", "127.0.0.1:0", "-addr-file", filepath.Join(s.dir, "resultd.addr"),
		"-backend", "fabric", "-dispatcher", s.dispAddr, "-cache", s.cells); err != nil {
		return s, err
	}
	addr, err := waitFile(filepath.Join(s.dir, "resultd.addr"), s.resultd)
	if err != nil {
		return s, err
	}
	s.url = "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if resp, err := client.Get(s.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("resultd /healthz never answered 200")
		}
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := b.psqStats(s.dispAddr)
		if err == nil && st["workers"] >= int64(b.slots) {
			break
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("worker slots never registered with the dispatcher (psq stats: %v, %v)", st, err)
		}
	}
	for _, h := range hot {
		b.attempted++
		status, body, err := post(client, s.url, h.body)
		if err != nil || status != http.StatusOK || !bytes.Equal(body, h.ref) {
			b.failed++
			return s, fmt.Errorf("pre-warming a hot spec: status %d, err %v, body equal %t", status, err, bytes.Equal(body, h.ref))
		}
	}
	return s, nil
}

// psqStats runs psq stats and parses its "name value" lines.
func (b *bench) psqStats(addr string) (map[string]int64, error) {
	var out bytes.Buffer
	if _, _, err := runOnce(&out, filepath.Join(b.bin, "psq"), "-dispatcher", addr, "stats"); err != nil {
		return nil, err
	}
	st := map[string]int64{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[len(f)-1], 10, 64); err == nil {
			st[strings.Join(f[:len(f)-1], " ")] = v
		}
	}
	return st, sc.Err()
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// event is one scheduled request.
type event struct {
	due  time.Duration // offset from the phase start
	spec int
	hit  bool
}

// sample is one finished request.
type sample struct {
	due     time.Duration
	latency time.Duration // from the due time to the response
	// lag is the generator's own lateness: from the due time, or from the
	// end of the connection's previous request if that is later, to the
	// send. Waiting for a busy connection is backlog, not lag.
	lag     time.Duration
	hit, ok bool
}

// drive sends each connection's schedule open-loop from start: every
// request is sent at its due time, or as soon as the connection is free if
// that is later. It returns every sample and the largest backlog — requests
// due but not yet sent — any connection saw.
func (b *bench) drive(url string, clients []*http.Client, scheds [][]event, specs []spec, parent int) ([]sample, int, error) {
	var mu sync.Mutex
	var all []sample
	var backlog int
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range scheds {
		wg.Add(1)
		go func(client *http.Client, sched []event) {
			defer wg.Done()
			local := make([]sample, 0, len(sched))
			maxBacklog := 0
			var free time.Duration // end of the previous request
			for i, ev := range sched {
				waitUntil(start, ev.due)
				now := time.Since(start)
				late := sort.Search(len(sched), func(j int) bool { return sched[j].due > now }) - i
				maxBacklog = max(maxBacklog, late)
				name := "serve.miss"
				if ev.hit {
					name = "serve.hit"
				}
				id := b.tr.begin(name, parent)
				status, body, err := post(client, url, specs[ev.spec].body)
				b.tr.end(id)
				done := time.Since(start)
				s := sample{due: ev.due, latency: done - ev.due, lag: now - max(ev.due, free), hit: ev.hit, ok: err == nil && status == http.StatusOK}
				free = done
				if s.ok && !bytes.Equal(body, specs[ev.spec].ref) {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("spec %d: served bytes differ from simulate -json", ev.spec)
					}
					mu.Unlock()
				}
				local = append(local, s)
			}
			mu.Lock()
			all = append(all, local...)
			backlog = max(backlog, maxBacklog)
			mu.Unlock()
		}(clients[ci], scheds[ci])
	}
	wg.Wait()
	return all, backlog, firstErr
}

// waitUntil returns at start+due. A timer sleep overshoots by most of a
// millisecond, so it sleeps to just short of the due time and spins the
// rest.
func waitUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Since(start) < due {
	}
}

// rates is the stream's traffic, derived from measured service times.
type rates struct {
	hitSvc, missSvc   time.Duration // closed-loop medians
	hit, fresh, burst float64       // requests (bursts) per second
	quiet             time.Duration // no hit is due this long after a burst
}

// calibrate measures the hit and miss service times on the started stack,
// closed loop with one request in flight, and derives the stream's rates:
// hits at hitUtil of the hit connection, computations at missUtil of the
// stack, burstShare of them as bursts, and quietMisses miss service times
// without hits after each burst.
func (b *bench) calibrate(url string, client *http.Client, hot, fresh []spec) (rates, error) {
	timed := func(s spec) (float64, error) {
		b.attempted++
		t0 := time.Now()
		status, body, err := post(client, url, s.body)
		d := time.Since(t0).Seconds()
		if err != nil || status != http.StatusOK || !bytes.Equal(body, s.ref) {
			b.failed++
			return 0, fmt.Errorf("calibration request: status %d, err %v, body equal %t", status, err, bytes.Equal(body, s.ref))
		}
		return d, nil
	}
	var hits, misses []float64
	for i := 0; i < calibHits; i++ {
		d, err := timed(hot[i%len(hot)])
		if err != nil {
			return rates{}, err
		}
		hits = append(hits, d)
	}
	for _, s := range fresh {
		d, err := timed(s)
		if err != nil {
			return rates{}, err
		}
		misses = append(misses, d)
	}
	hitSvc, missSvc := median(hits), median(misses)
	computations := missUtil / missSvc
	return rates{
		hitSvc:  time.Duration(hitSvc * float64(time.Second)),
		missSvc: time.Duration(missSvc * float64(time.Second)),
		hit:     hitUtil / hitSvc,
		fresh:   (1 - burstShare) * computations,
		burst:   burstShare * computations,
		quiet:   time.Duration(quietMisses * missSvc * float64(time.Second)),
	}, nil
}

// schedule builds the stream's two per-connection schedules from the seed:
// hits on the hit connection, fresh misses on the miss connection, and
// bursts of two identical new specs, one on each connection at the same due
// time, which coalesce. Each stream has a fixed count, rate × phase length,
// with every event placed at a random point of its own slot, so that runs
// with different seeds offer the same amount of work.
func schedule(rng *rand.Rand, d time.Duration, r rates, firstMiss int) (hitConn, missConn []event, next int) {
	times := func(rate float64) []time.Duration {
		n := int(math.Round(rate * d.Seconds()))
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
		}
		return out
	}
	next = firstMiss
	bursts := times(r.burst)
	for _, t := range bursts {
		hitConn = append(hitConn, event{due: t, spec: next})
		missConn = append(missConn, event{due: t, spec: next})
		next++
	}
	quiet := func(t time.Duration) bool {
		for _, bt := range bursts {
			if t >= bt-5*time.Millisecond && t < bt+r.quiet {
				return true
			}
		}
		return false
	}
	for _, t := range times(r.hit) {
		if !quiet(t) {
			hitConn = append(hitConn, event{due: t, spec: rng.IntN(hotSpecs), hit: true})
		}
	}
	for _, t := range times(r.fresh) {
		missConn = append(missConn, event{due: t, spec: next})
		next++
	}
	byDue := func(s []event) { sort.SliceStable(s, func(i, j int) bool { return s[i].due < s[j].due }) }
	byDue(hitConn)
	byDue(missConn)
	return hitConn, missConn, next
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// serveLayers measures the serving stack's layers in the traced run of the
// workload marked serving: resultd -backend fabric -cache in front of a
// local fabricd dispatcher (with -journal and -cache) and one worker with
// nproc slots, driven for servePhase by an open-loop stream whose rates
// follow from the stack's measured service times (calibrate) and whose
// placement and specs follow from the seed; then the stream's fine-grained
// miss spec through simulate -backend pool, proc and fabric.
func (b *bench) serveLayers(v layerValues) error {
	rng := rand.New(rand.NewPCG(b.seed, 0x5e7fab))
	base := rng.Uint64N(1 << 40)
	var specs, calib []spec
	for i := 0; i < hotSpecs; i++ {
		s, err := b.specFor(hotFlags(i, base+uint64(i)+1))
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	for i := 0; i < calibMisses; i++ {
		s, err := b.specFor(missFlags(base + 500 + uint64(i)))
		if err != nil {
			return err
		}
		calib = append(calib, s)
	}

	clients := []*http.Client{newClient(), newClient()}
	id := b.tr.begin("stack.start", 0)
	st, err := b.startStack(specs, clients[0])
	b.tr.end(id)
	if st != nil {
		defer st.stop()
	}
	if err != nil {
		return fmt.Errorf("starting the serving stack: %w", err)
	}
	r, err := b.calibrate(st.url, clients[0], specs, calib)
	if err != nil {
		return err
	}
	hitSched, missSched, n := schedule(rng, servePhase, r, hotSpecs)
	for i := hotSpecs; i < n; i++ {
		s, err := b.specFor(missFlags(base + 1000 + uint64(i)))
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	fmt.Printf("serving stream: hit service %.3f ms, miss service %.2f ms (closed loop); %.0f hits/s over %d hot specs, %.2f fresh misses/s, %.2f bursts/s of 2, %.0f ms quiet after a burst; %d distinct specs\n",
		ms(r.hitSvc), ms(r.missSvc), r.hit, hotSpecs, r.fresh, r.burst, ms(r.quiet), len(specs))

	before, err := serveStats(clients[0], st.url)
	if err != nil {
		return err
	}
	j0, c0 := fileSize(st.journal), fileSize(st.outcomes)
	root := b.tr.begin("loadgen.phase", 0)
	samples, backlog, err := b.drive(st.url, clients, [][]event{hitSched, missSched}, specs, root)
	b.tr.end(root)
	if err != nil {
		return err
	}
	after, err := serveStats(clients[0], st.url)
	if err != nil {
		return err
	}
	var lags, hits, misses []float64
	for _, s := range samples {
		b.attempted++
		if !s.ok {
			b.failed++
			continue
		}
		lags = append(lags, ms(s.lag))
		if s.hit {
			hits = append(hits, ms(s.latency))
		} else {
			misses = append(misses, ms(s.latency))
		}
	}
	tails("serving hit", hits)
	tails("serving miss", misses)
	var tasks int64
	for _, s := range specs[hotSpecs:] {
		tasks += s.tasks
	}
	reqs := float64(after.Requests - before.Requests)
	v["serve.hit_share"] = float64(after.CacheHits-before.CacheHits) / reqs
	v["serve.coalesced_share"] = float64(after.Coalesced-before.Coalesced) / reqs
	v["serve.rejected_share"] = float64(after.Rejected-before.Rejected) / reqs
	v["lru.evictions"] = float64(after.Results.Evictions - before.Results.Evictions)
	v["fabric.journal_bytes_per_task"] = float64(fileSize(st.journal)-j0) / float64(tasks)
	v["fabric.cache_bytes_per_task"] = float64(fileSize(st.outcomes)-c0) / float64(tasks)
	ps, err := b.psqStats(st.dispAddr)
	if err != nil {
		return err
	}
	v["fabric.requeues"] = float64(ps["requeues"])
	v["fabric.deadline_expiries"] = float64(ps["deadline expiries"])
	v["loadgen.sent"] = float64(len(samples))
	v["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	v["loadgen.backlog_max"] = float64(backlog)
	v["loadgen.hit_p50_ms"] = quantile(hits, 0.5)
	v["loadgen.hit_p99_ms"] = quantile(hits, 0.99)
	v["loadgen.miss_p50_ms"] = quantile(misses, 0.5)
	v["loadgen.miss_p90_ms"] = quantile(misses, 0.9)

	if err := b.hitHandler(v, specs[0]); err != nil {
		return err
	}
	return b.dispatchOverheads(v, st.dispAddr)
}

// dispatchOverheads runs the fine-grained miss spec, on seeds no cache has
// seen, serially in process and through simulate -backend pool, proc and
// fabric, and reports each backend's slot time not spent executing, per
// task.
func (b *bench) dispatchOverheads(v layerValues, dispAddr string) error {
	var fresh []spec
	var exec time.Duration
	var tasks int
	for i := 0; i < 3; i++ {
		s, err := b.specFor(missFlags(uint64(1<<41) + b.seed*8 + uint64(i)))
		if err != nil {
			return err
		}
		fresh = append(fresh, s)
		var rs exp.ResultSet
		if err := json.Unmarshal(s.ref, &rs); err != nil {
			return err
		}
		list, err := rs.Sweep.Tasks()
		if err != nil {
			return err
		}
		env := exp.Env{Sweep: &rs.Sweep}
		for _, task := range list {
			id := b.tr.begin("exp.ExecuteTask", 0)
			_, err := exp.ExecuteTask(env, task)
			exec += b.tr.end(id)
			if err != nil {
				return err
			}
			tasks++
		}
	}
	for _, backend := range []string{"pool", "proc", "fabric"} {
		var total time.Duration
		for _, s := range fresh {
			flags := append(append([]string(nil), s.flags...), "-backend", backend)
			if backend == "fabric" {
				flags = append(flags, "-dispatcher", dispAddr)
			}
			wall, err := b.simulateWall(flags)
			if err != nil {
				return err
			}
			total += wall
		}
		name := "exp." + backend + "_overhead_us_per_task"
		if backend == "fabric" {
			name = "fabric.overhead_us_per_task"
			fmt.Printf("miss spec on fabric: simulation is %.0f%% of slot time, the rest dispatch, wire and journal\n",
				100*exec.Seconds()/(total.Seconds()*float64(b.slots)))
		}
		v[name] = overheadPerTask(total, b.slots, exec, float64(tasks))
	}
	return nil
}

// serveStats fetches resultd's /v1/stats.
func serveStats(client *http.Client, url string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// hitHandler times serve.Server.ServeHTTP on a cache hit, in process.
func (b *bench) hitHandler(v layerValues, hot spec) error {
	s := serve.New(serve.Options{Exp: exp.Options{Workers: b.slots}})
	defer s.Close()
	do := func() (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(hot.body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	if rec, _ := do(); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), hot.ref) {
		return fmt.Errorf("in-process serve: status %d or bytes differ from simulate -json", rec.Code)
	}
	var total time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		rec, d := do()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process serve hit: status %d", rec.Code)
		}
		total += d
	}
	v["serve.hit_handler_us"] = float64(total.Nanoseconds()) / 1e3 / n
	return nil
}
