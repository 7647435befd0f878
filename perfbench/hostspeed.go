package main

import (
	"container/heap"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Host-speed correction.
//
// The benchmark shares its machine's cores with other tenants, and their
// load reaches a run in two ways. The host can take a vCPU away for a while
// (steal time, which the guest kernel counts in /proc/stat): wall time
// grows, the program's CPU time does not. And it can make every cycle
// slower (busy sibling threads, lower clocks): wall and CPU time grow
// together. On a 2-vCPU Xeon VM the same paper-grid request took 1.3 s and
// 2.2 s a few minutes apart, its CPU time moving with its wall time, and
// single requests lost up to 1.7 vCPU-seconds to steal. Both drift over
// minutes, so no run length averages them away.
//
// Each request's wall time is therefore taken without the steal the kernel
// counted during it, spread over the slots, and its times are scaled by the
// speed of a fixed loop in this package, timed in CPU time (which steal does
// not reach) between requests. The loop is the benchmark's own code, so a
// change to the program moves the scaled metrics in full.

const (
	// calSteps is one loop run's work per slot, about 0.2 s.
	calSteps = 800_000
	// refStepNs is the reference step time: the loop's median CPU time per
	// step on a quiet host of the VM above. A time scaled to it reads what
	// the program would take on that host when quiet.
	refStepNs = 250.0
	// userHZ is the unit of /proc/stat's counters: ticks per second.
	userHZ = 100
)

// eventHeap is a binary min-heap of event times.
type eventHeap []float64

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(v any)        { *h = append(*h, v.(float64)) }
func (h *eventHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// calSink keeps the loop's result live so the compiler cannot drop it.
var calSink [64]float64

// calLoop is a small discrete-event loop with the program's kind of work:
// a xorshift generator, exponential variates and heap operations that box
// their values (so the allocator and collector run too).
func calLoop(slot int) {
	s := uint64(88172645463325252)
	h := &eventHeap{}
	for i := 0; i < 64; i++ {
		heap.Push(h, float64(i))
	}
	now := 0.0
	for i := 0; i < calSteps; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u := float64(s>>11) / (1 << 53)
		now = heap.Pop(h).(float64)
		heap.Push(h, now-math.Log(1-u))
	}
	calSink[slot%len(calSink)] = now
}

// hostStep runs the loop on every slot at once, as the program's workers
// run, and returns the process CPU time it took per step, in ns.
func (b *bench) hostStep() float64 {
	cpu0 := selfCPU()
	var wg sync.WaitGroup
	for i := 0; i < b.slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calLoop(i)
		}()
	}
	wg.Wait()
	return float64((selfCPU() - cpu0).Nanoseconds()) / float64(calSteps*b.slots)
}

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuOf(&ru)
}

// stolen is the time the host has taken from this machine's vCPUs since
// boot, summed over them: the steal column of /proc/stat's "cpu" line. It
// is 0 where the kernel does not report steal.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}
