package sim

// refSystem is the rebuild reference engine, the one oracle the production
// engine (System, incremental.go) is diffed against. It is the historical
// stepping loop kept verbatim: at every event it re-runs the policy's
// dense Allocate when the job set changed, depletes every resident job and
// rebuilds the future-event list from scratch — O(n) per event, with no
// lazy settlement, no write-sets and no structure-specific fast paths, so
// it shares none of the machinery it checks. The golden_trace_* files pin
// it bit for bit.
//
// It embeds a System for storage and the bookkeeping every stepping loop
// shares (queues, job arena, metrics, completion records, admit), built
// over the facet-hiding wrapper struct{ Policy } so no fast-path state is
// ever armed. Every System method whose body reads engine state —
// Arrive, AdvanceTo, Drain, NextEventTime, Work, WorkClass — is overridden
// below; the promoted rest (Metrics, NumJobs, Clock, ...) is engine-free.

import (
	"fmt"
	"math"

	"repro/internal/eventq"
)

type refSystem struct {
	*System

	// evq is the future-event list (it shadows System.evq, which the
	// reference never touches), refilled from the live job set at every
	// event (its backing array is reused, so rebuilding is
	// allocation-free). It holds arena handles — no pointers, so heap swaps
	// write no barriers.
	evq eventq.Queue[jobHandle]
}

func newRefSystem(k int, classes []ClassSpec, policy Policy) *refSystem {
	return &refSystem{System: NewClassSystem(k, classes, struct{ Policy }{policy})}
}

// Arrive injects a job at the current clock.
func (s *refSystem) Arrive(a Arrival) *Job {
	if a.Time < s.clock-1e-12 {
		panic(fmt.Sprintf("sim: arrival at %v is before clock %v", a.Time, s.clock))
	}
	if a.Time > s.clock {
		s.advanceClockOnly(a.Time)
	}
	j := s.admit(a)
	s.allocDirty = true
	return j
}

// Work returns the total remaining work W(t).
func (s *refSystem) Work() float64 {
	w := 0.0
	for c := range s.queues {
		w += s.WorkClass(Class(c))
	}
	return w
}

// WorkClass returns the remaining class-c work W_c(t) by a per-job scan.
func (s *refSystem) WorkClass(c Class) float64 {
	if c < 0 || int(c) >= len(s.queues) {
		return 0
	}
	w := 0.0
	for _, j := range s.queues[c] {
		w += j.Remaining
	}
	return w
}

// NextEventTime returns the absolute time of the next internal completion
// under the current allocation, or +Inf when nothing is running.
func (s *refSystem) NextEventTime() float64 {
	s.refreshAllocation()
	_, t := s.nextCompletion()
	return t
}

// AdvanceTo advances the simulation clock to time t, processing every
// completion in (clock, t]. It returns the completions in chronological
// order; the returned slice is reused by the next call.
func (s *refSystem) AdvanceTo(t float64) []Completion {
	if t < s.clock-1e-12 {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before clock %v", t, s.clock))
	}
	s.records = s.records[:0]
	for {
		s.refreshAllocation()
		done, tc := s.nextCompletion()
		// Process every completion at or before t — including ones that
		// land exactly on t or exactly on the current clock (simultaneous
		// completions depleted by a previous advance), which would
		// otherwise linger and stall lockstep callers.
		if done != nil && tc <= t {
			s.advanceWork(tc - s.clock)
			s.complete(done)
			continue
		}
		if s.clock < t {
			s.advanceWork(t - s.clock)
		}
		break
	}
	// Clamp accumulated floating error so coupled runs stay aligned.
	s.clock = t
	return s.materializeCompletions()
}

// Drain runs the system until it empties or the clock passes horizon,
// returning all completions.
func (s *refSystem) Drain(horizon float64) []Completion {
	s.records = s.records[:0]
	for s.NumJobs() > 0 && s.clock < horizon {
		s.refreshAllocation()
		done, tc := s.nextCompletion()
		if done == nil || tc > horizon {
			s.advanceWork(horizon - s.clock)
			s.clock = horizon
			break
		}
		s.advanceWork(tc - s.clock)
		s.clock = tc
		s.complete(done)
	}
	// Drain's result must survive subsequent stepping, so it gets its own
	// slice rather than the reused AdvanceTo buffer.
	return append([]Completion(nil), s.materializeCompletions()...)
}

// advanceClockOnly integrates metrics and work up to t assuming no
// completion occurs strictly before t; callers must guarantee that.
func (s *refSystem) advanceClockOnly(t float64) {
	for s.clock < t {
		s.refreshAllocation()
		done, tc := s.nextCompletion()
		if done == nil || tc >= t {
			s.advanceWork(t - s.clock)
			break
		}
		s.advanceWork(tc - s.clock)
		s.complete(done)
	}
	s.clock = t
}

// refreshAllocation re-runs the policy if the job set changed.
func (s *refSystem) refreshAllocation() {
	if !s.allocDirty {
		return
	}
	s.allocDirty = false
	s.st.Time = s.clock
	s.st.Queues = s.queues
	for c, q := range s.queues {
		s.alloc.Classes[c] = resizeZero(s.alloc.Classes[c], len(q))
	}
	s.policy.Allocate(&s.st, &s.alloc)
	s.applyAllocation()
}

func (s *refSystem) applyAllocation() {
	const eps = 1e-9
	total := 0.0
	for c, q := range s.queues {
		spec := &s.classes[c]
		capC := s.caps[c]
		// Linear and capped speedups satisfy s(a) = a for every feasible
		// (clamped) allocation, so the dispatch through Speedup.Rate is
		// hoisted out of the hot loop.
		identityRate := s.idRate[c]
		ac := s.alloc.Classes[c]
		for i, j := range q {
			a := ac[i]
			if a < -eps || a > capC+eps {
				panic(fmt.Sprintf("sim: policy %s allocated %v servers to a %s-class job (cap %v)",
					s.policy.Name(), a, spec.Speedup, capC))
			}
			a = clamp(a, 0, capC)
			j.servers = a
			if identityRate {
				j.rate = a
			} else {
				j.rate = spec.Speedup.Rate(a)
			}
			total += a
		}
	}
	if total > float64(s.k)+1e-6 {
		panic(fmt.Sprintf("sim: policy %s allocated %v servers on a %d-server system", s.policy.Name(), total, s.k))
	}
	s.metrics.busyRate = math.Min(total, float64(s.k))
}

// nextCompletion returns the next finishing job under current rates and its
// absolute finish time, or (nil, +inf) when nothing is running. Candidates
// are rebuilt into the event queue in class-then-FCFS order; eventq breaks
// time ties by insertion order, so simultaneous completions resolve exactly
// like the historical linear scan (lowest class first, FCFS within a class).
func (s *refSystem) nextCompletion() (*Job, float64) {
	s.evq.Clear()
	for _, q := range s.queues {
		for _, j := range q {
			switch {
			case j.Remaining <= 0:
				// Fully depleted but not yet removed (possible when an
				// allocation change lands exactly on a finish time):
				// completes immediately.
				s.evq.Append(s.clock, j.handle)
			case j.rate > 0:
				s.evq.Append(s.clock+j.Remaining/j.rate, j.handle)
			}
		}
	}
	if s.evq.Empty() {
		return nil, math.Inf(1)
	}
	s.evq.Fix()
	e := s.evq.Peek()
	return s.jobs.at(e.Payload), e.Time
}

// advanceWork depletes remaining sizes over dt at current rates and
// integrates metrics. The metric integrals and the depletion are fused into
// one walk per class — the accumulation order over jobs is identical to the
// historical separate integrate + deplete scans (work and rate sums read
// each job before it is depleted, in queue order), so the fusion is
// bit-invisible to the golden set while halving the pointer traffic of the
// rebuild engine's dominant loop.
func (s *refSystem) advanceWork(dt float64) {
	if dt <= 0 {
		return
	}
	m := &s.metrics
	for c, q := range s.queues {
		r, w := 0.0, 0.0
		for _, j := range q {
			w += j.Remaining
			if j.rate > 0 {
				r += j.rate
				// max(0, rem-rate*dt) via a branch: math.Max is not inlined
				// and the operands here are never NaN or -0, so the branch is
				// bit-identical.
				rem := j.Remaining - j.rate*dt
				if rem < 0 {
					rem = 0
				}
				j.Remaining = rem
			}
		}
		m.areaN[c] += float64(len(q)) * dt
		// Between events the class's work declines linearly at its total
		// service rate, so the exact integral over the segment is the
		// trapezoid rule with the segment's constant depletion rate.
		m.areaW[c] += (w - 0.5*r*dt) * dt
	}
	m.areaBusy += m.busyRate * dt
	m.elapsed += dt
	if m.TrackOccupancy {
		key := [2]int{min(s.NumClass(0), occupancyCap), min(s.NumClass(1), occupancyCap)}
		m.occupancy[key] += dt
	}
	s.clock += dt
}

func (s *refSystem) complete(j *Job) {
	j.Remaining = 0
	if !s.removeJobQueue(j.Class, j) {
		panic("sim: completing job not found in system")
	}
	s.appendCompletion(j)
}
