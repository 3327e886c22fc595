package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes; stamps are
// nanoseconds since process start on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// cpuNow returns the CPU time the process has used, in nanoseconds: the
// user and system time of every thread, the garbage collector's included.
// The guest kernel leaves out steal time, when the hypervisor ran another
// guest on the vCPU, which the wall clock counts. (Other tenants still
// slow each cycle by sharing the caches and cores.)
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// linearNs is the range in which latencies are kept at 1 ns resolution;
// slower calls go to an exact overflow list (they are rare: a GC assist
// or a preemption).
const linearNs = 1 << 16

// hist is a latency histogram, exact to the nanosecond.
type hist struct {
	counts [linearNs]uint32
	over   []int64
	n      uint64
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n++
	if ns < linearNs {
		h.counts[ns]++
		return
	}
	h.over = append(h.over, ns)
}

// quantile returns the smallest recorded value v such that at least a
// fraction q of the samples are ≤ v (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return float64(i)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return float64(h.over[rank-seen-1])
}

// median of a sample; it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// mallocs returns the cumulative heap allocation count. ReadMemStats
// stops the world, so it is called only between timed phases.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap returns the heap bytes marked live by the most recent GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
