package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tail is one percentile read from a sample set under the tail rule.
type tail struct {
	Q     float64 // the percentile actually reported, 0..1
	Value float64
	N     int // sample count
}

// percentile reports the wanted quantile of samples, or the highest lower
// one that still has at least minTail samples beyond it when there are
// too few for the wanted one. Ranks are nearest-rank: the q-quantile of n
// sorted samples is the ceil(q*n)-th, so n-ceil(q*n) samples lie beyond
// it. ok is false when fewer than minTail+1 samples exist. samples is
// sorted in place.
func percentile(samples []float64, want float64) (t tail, ok bool) {
	n := len(samples)
	t.N = n
	if n <= minTail {
		return t, false
	}
	sort.Float64s(samples)
	q := want
	if maxQ := float64(n-minTail) / float64(n); q > maxQ {
		q = maxQ
	}
	// The epsilon keeps a q*n that float rounding lifts just above an
	// integer from skipping a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	t.Q = q
	t.Value = samples[rank-1]
	return t, true
}

// blockRate splits latency samples (µs, in the order they were taken)
// into consecutive blocks of size and returns the median over complete
// blocks of the block's throughput, each sample standing for weight
// operations decided back to back. A median over blocks keeps a passing
// disturbance of the machine from moving a run's figure.
func blockRate(samples []float64, size int, weight float64) (rate float64, blocks int) {
	var rates []float64
	for lo := 0; lo+size <= len(samples); lo += size {
		var sum float64
		for _, x := range samples[lo : lo+size] {
			sum += x
		}
		rates = append(rates, float64(size)*weight/(sum/1e6))
	}
	return median(rates), len(rates)
}

// blockPercentile is the median over complete blocks of size of each
// block's percentile under the tail rule; ok is false without a complete
// block. samples keeps its order.
func blockPercentile(samples []float64, size int, want float64) (t tail, blocks int, ok bool) {
	var vals, qs []float64
	for lo := 0; lo+size <= len(samples); lo += size {
		bt, bok := percentile(slices.Clone(samples[lo:lo+size]), want)
		if !bok {
			return t, 0, false
		}
		vals = append(vals, bt.Value)
		qs = append(qs, bt.Q)
	}
	if len(vals) == 0 {
		return t, 0, false
	}
	return tail{Q: slices.Min(qs), Value: median(vals), N: size}, len(vals), true
}

// usOf converts a duration to microseconds with all its digits.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports as deltas over a measured region.
type runtimeSample struct {
	gcCPU, totalCPU      float64
	allocObjs, allocByte uint64
	pauses, schedLat     *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:     s[0].Value.Float64(),
		totalCPU:  s[1].Value.Float64(),
		allocObjs: s[2].Value.Uint64(),
		allocByte: s[3].Value.Uint64(),
		pauses:    s[4].Value.Float64Histogram(),
		schedLat:  s[5].Value.Float64Histogram(),
	}
}

// runtimeAcc sums what the runtime did over one or more measured
// regions, each bracketed by two readRuntime samples.
type runtimeAcc struct {
	gcCPU, totalCPU float64
	allocs, bytes   float64
	pauses, sched   histAcc
}

func (r *runtimeAcc) add(a, b runtimeSample) {
	r.gcCPU += b.gcCPU - a.gcCPU
	r.totalCPU += b.totalCPU - a.totalCPU
	r.allocs += float64(b.allocObjs - a.allocObjs)
	r.bytes += float64(b.allocByte - a.allocByte)
	r.pauses.add(a.pauses, b.pauses)
	r.sched.add(a.schedLat, b.schedLat)
}

// report sets the runtime's per-layer metrics; changes normalizes the
// allocation counts.
func (r *runtimeAcc) report(m metricValues, changes int) {
	m["go.gc_cpu_frac"] = ratio(r.gcCPU, r.totalCPU)
	m["go.gc_pause_p99_us"] = r.pauses.quantile(0.99) * 1e6
	m["go.sched_latency_p99_us"] = r.sched.quantile(0.99) * 1e6
	m["mcc.allocs_per_change"] = ratio(r.allocs, float64(changes))
	m["mcc.bytes_per_change"] = ratio(r.bytes, float64(changes))
}

// histAcc sums the observations a runtime histogram gained.
type histAcc struct {
	buckets []float64
	counts  []uint64
}

func (h *histAcc) add(a, b *metrics.Float64Histogram) {
	if h.buckets == nil {
		h.buckets = b.Buckets
		h.counts = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		h.counts[i] += b.Counts[i] - a.Counts[i]
	}
}

// quantile returns the q-quantile of the summed observations as the
// upper edge of the bucket holding it (the lower edge when the upper one
// is +Inf); 0 when nothing was observed.
func (h *histAcc) quantile(q float64) float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= need {
			if hi := h.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.buckets[i]
		}
	}
	return h.buckets[len(h.buckets)-1]
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
