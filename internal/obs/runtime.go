package obs

import (
	"math"
	"runtime/metrics"
)

// Runtime telemetry: the stack's sampler reads the Go runtime's own metrics
// (runtime/metrics) into the registry as runtime_* series on every tick, so
// GC pressure, scheduler latency, and heap growth are scraped and archived
// next to the pipeline's metrics. All names are the Metric* constants in metrics.go;
// the metricname analyzer requires runtime_* series names to be named
// constants, so the runtime catalogue cannot fragment silently.

// runtime/metrics source names. Each feeds exactly one runtime_* series;
// names a runtime version does not publish (KindBad) are skipped, so the
// sampler degrades gracefully across Go releases.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapLive   = "/memory/classes/heap/objects:bytes"
	rmHeapGoal   = "/gc/heap/goal:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmHeapAllocs = "/gc/heap/allocs:bytes"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// runtimeSampler owns the metrics.Sample buffer and the registry handles the
// runtime series feed. One instance per sampler; sample runs under the
// sampler's tick lock (shard 0), so no synchronization is needed beyond the
// registry cells' own atomics.
type runtimeSampler struct {
	samples []metrics.Sample

	goroutines  *Gauge
	heapLive    *Gauge
	heapGoal    *Gauge
	gcPauseP99  *Gauge
	schedLatP99 *Gauge

	gcCycles   *Counter
	gcCPU      *Counter
	heapAllocs *Counter

	// Previous absolute values behind the cumulative counters: the runtime
	// reports totals, the registry counters want deltas.
	prevCycles int64
	prevCPUus  int64
	prevAllocs int64
}

func newRuntimeSampler(reg *Registry) *runtimeSampler {
	names := []string{
		rmGoroutines, rmHeapLive, rmHeapGoal, rmGCCycles,
		rmGCCPU, rmHeapAllocs, rmGCPauses, rmSchedLat,
	}
	rs := &runtimeSampler{
		samples:     make([]metrics.Sample, len(names)),
		goroutines:  reg.Gauge(MetricRuntimeGoroutines),
		heapLive:    reg.Gauge(MetricRuntimeHeapLive),
		heapGoal:    reg.Gauge(MetricRuntimeHeapGoal),
		gcPauseP99:  reg.Gauge(MetricRuntimeGCPauseP99),
		schedLatP99: reg.Gauge(MetricRuntimeSchedLatP99),
		gcCycles:    reg.Counter(MetricRuntimeGCCycles),
		gcCPU:       reg.Counter(MetricRuntimeGCCPU),
		heapAllocs:  reg.Counter(MetricRuntimeHeapAllocs),
	}
	for i, name := range names {
		rs.samples[i].Name = name
	}
	return rs
}

// sample reads the runtime metrics and feeds the registry. Gauges carry the
// current absolute level; counters advance by the delta since the previous
// sample, so the registry counter tracks the runtime total.
func (rs *runtimeSampler) sample() {
	if rs == nil {
		return
	}
	metrics.Read(rs.samples)
	for i := range rs.samples {
		s := &rs.samples[i]
		switch s.Name {
		case rmGoroutines:
			if v, ok := sampleInt(s); ok {
				rs.goroutines.Set(0, v)
			}
		case rmHeapLive:
			if v, ok := sampleInt(s); ok {
				rs.heapLive.Set(0, v)
			}
		case rmHeapGoal:
			if v, ok := sampleInt(s); ok {
				rs.heapGoal.Set(0, v)
			}
		case rmGCCycles:
			if v, ok := sampleInt(s); ok {
				rs.prevCycles = advance(rs.gcCycles, rs.prevCycles, v)
			}
		case rmGCCPU:
			if s.Value.Kind() == metrics.KindFloat64 {
				us := int64(s.Value.Float64() * 1e6)
				rs.prevCPUus = advance(rs.gcCPU, rs.prevCPUus, us)
			}
		case rmHeapAllocs:
			if v, ok := sampleInt(s); ok {
				rs.prevAllocs = advance(rs.heapAllocs, rs.prevAllocs, v)
			}
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				rs.gcPauseP99.Set(0, histP99Micros(s.Value.Float64Histogram()))
			}
		case rmSchedLat:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				rs.schedLatP99.Set(0, histP99Micros(s.Value.Float64Histogram()))
			}
		}
	}
}

// sampleInt extracts an integer-valued sample, false for unsupported kinds.
func sampleInt(s *metrics.Sample) (int64, bool) {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		v := s.Value.Uint64()
		if v > math.MaxInt64 {
			v = math.MaxInt64
		}
		return int64(v), true
	case metrics.KindFloat64:
		return int64(s.Value.Float64()), true
	default:
		return 0, false
	}
}

// advance feeds a cumulative runtime total into a registry counter as a
// delta, returning the new previous value. A total that moved backwards
// (impossible in practice) is absorbed by re-basing without a negative add.
func advance(c *Counter, prev, cur int64) int64 {
	if cur > prev {
		c.Add(0, cur-prev)
	}
	return cur
}

// histP99Micros extracts the p99 upper bound of a runtime histogram in
// integer microseconds (gauges are integers). Runtime histograms carry
// cumulative counts since process start, so this is the run-level p99.
func histP99Micros(h *metrics.Float64Histogram) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * 0.99)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = h.Buckets[i]
			}
			return int64(ub * 1e6)
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return int64(last * 1e6)
}
