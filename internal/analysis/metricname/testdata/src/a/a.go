// Fixture for the metricname analyzer: metric, trace-region, and request-span
// names must be compile-time constants.
package a

import (
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

const localMetric = "local_metric_total"

func literals(reg *obs.Registry) {
	reg.Counter("reads_total").Inc(0)
	reg.Gauge("in_flight").Set(0, 1)
	reg.Histogram("latency_seconds").Observe(0, time.Millisecond)
}

func namedConstants(reg *obs.Registry) {
	reg.Counter(obs.MetricPipelineReads).Inc(0)
	reg.Counter(localMetric).Inc(0)
	// Concatenating constants still folds at compile time.
	reg.Histogram(localMetric+"_seconds").Observe(0, time.Second)
}

func dynamicMetric(reg *obs.Registry, worker int) {
	reg.Counter(fmt.Sprintf("worker_%d_reads", worker)).Inc(worker) // want `metric name must be a string literal or named constant`
	name := "gauge_" + fmt.Sprint(worker)
	reg.Gauge(name).Set(worker, 1) // want `metric name must be a string literal or named constant`
}

func dynamicHistogram(reg *obs.Registry, stage string) {
	reg.Histogram("stage_"+stage).Observe(0, time.Second) // want `metric name must be a string literal or named constant`
}

func traceRegions(r *trace.Recorder, worker int, stage string) {
	r.Record(worker, trace.RegionCluster, time.Now(), time.Millisecond)
	r.Record(worker, "fixed_region", time.Now(), time.Millisecond)
	r.Record(worker, stage, time.Now(), time.Millisecond)           // want `trace region name must be a string literal or named constant`
	r.Record(worker, "region_"+stage, time.Now(), time.Millisecond) // want `trace region name must be a string literal or named constant`
}

func requestSpans(rt *obs.ReqTrace, worker int, stage string) {
	rt.AddSpan(obs.SpanAdmit, worker, time.Now(), time.Millisecond)
	rt.AddSpan("fixed_span", worker, time.Now(), time.Millisecond)
	rt.AddSpan("span_"+stage, worker, time.Now(), time.Millisecond)   // want `request span name must be a string literal or named constant`
	rt.AddSpan(fmt.Sprintf("span_%d", worker), worker, time.Now(), 0) // want `request span name must be a string literal or named constant`
}

func suppressed(reg *obs.Registry, name string) {
	reg.Counter(name).Inc(0) //vetgiraffe:ignore metricname fixture exercises the suppression path
}

const localLabelKey = "stage"

func pprofLabelKeys(class string) {
	_ = pprof.Labels(obs.LabelStage, "map", obs.LabelRequestClass, class)
	_ = pprof.Labels(localLabelKey, "emit")
	_ = pprof.Labels("stage", "map")                          // want `pprof label key must be a named constant`
	_ = pprof.Labels(obs.LabelStage+"x", "ingest")            // want `pprof label key must be a named constant`
	_ = pprof.Labels(obs.LabelWorker, "0", "ad_hoc_key", "v") // want `pprof label key must be a named constant`
}

func runtimeSeries(reg *obs.Registry) {
	reg.Gauge(obs.MetricRuntimeGoroutines).Set(0, 1)
	reg.Counter(localMetric).Inc(0)
	reg.Gauge("runtime_goroutines").Set(0, 1)          // want `runtime_\* metric name must be a named constant`
	reg.Counter("runtime_" + "gc_cycles_total").Inc(0) // want `runtime_\* metric name must be a named constant`
}
