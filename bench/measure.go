package main

import (
	"runtime"
	rtm "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"github.com/glap-sim/glap/internal/stats"
)

// median is the middle value of xs (0 for no samples).
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// midmean is the mean of the middle half of xs (the interquartile mean): as
// indifferent to a stalled rep or an odd seed as the median, but averaging
// half the samples instead of one or two, it moves less from run to run.
// Fewer than four samples fall back to the median.
func midmean(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[n/4 : n-n/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// tailSupported reports whether n samples leave at least ten beyond the
// p-quantile — the rule for quoting a tail percentile at all. The timed reps
// (a dozen per run) never qualify, which is why end-to-end timings are
// medians with min and max; the per-round wall has ≥720 samples per rep and
// supports p98.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// heapSampler tracks the peak of the runtime's marked-live heap
// (/gc/heap/live:bytes — what the last GC cycle found reachable, so floating
// garbage does not move it) on a 20 ms ticker and at explicit sample calls.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.sample()
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
	rtm.Read(s)
	if s[0].Value.Kind() != rtm.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stopMB takes a last sample, waits for the sampler goroutine to exit and
// returns the peak in MB (1e6 bytes).
func (h *heapSampler) stopMB() float64 {
	h.sample()
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / 1e6
}

// rtCounters is a reading of the runtime's cumulative GC accounting.
type rtCounters struct {
	gcCPU, totalCPU float64 // seconds
	pauseNs         uint64
	allocBytes      uint64
	numGC           uint32
}

func readRuntime() rtCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtm.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtm.Read(s)
	c := rtCounters{pauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC}
	if s[0].Value.Kind() == rtm.KindFloat64 && s[1].Value.Kind() == rtm.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// since returns the runtime.* layer metrics for the interval from c to now.
func (c rtCounters) since() map[string]float64 {
	now := readRuntime()
	m := map[string]float64{
		"runtime.gc_pause_ms": float64(now.pauseNs-c.pauseNs) / 1e6,
		"runtime.alloc_mb":    float64(now.allocBytes-c.allocBytes) / 1e6,
		"runtime.num_gc":      float64(now.numGC - c.numGC),
		"runtime.gc_cpu_frac": 0,
	}
	if cpu := now.totalCPU - c.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (now.gcCPU - c.gcCPU) / cpu
	}
	return m
}
