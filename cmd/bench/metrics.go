package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// defaultSeed is the seed the committed baseline numbers were taken at.
const defaultSeed = 1

const (
	tierEndToEnd = "end_to_end"
	tierPerLayer = "per_layer"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json repeats the
// listed rows (a test keeps the two in step); README.md explains each.
type metricDef struct {
	name   string
	unit   string
	tier   string
	higher bool // better direction
	// bound is the share of the base's median by which an end-to-end metric
	// may worsen before -compare (and the driver) call it a regression.
	// Per-layer metrics have none: they are reported, never gated.
	bound float64
	// listed marks a metric BENCHMARK.json names: a single-tier run prints
	// every listed metric of its tier on every workload, so only metrics that
	// every workload's run of that tier can measure (and that are never 0)
	// are listed. The rest appear in the document and the table only.
	listed bool
}

// catalogue lists every metric the benchmark reports, in print order.
var catalogue = []metricDef{
	// setup_s carries the largest bound the benchmark contract allows, as the
	// contract asks of it; the two counts keep the issue's 1 % and 2 %.
	{name: "setup_s", unit: "s", tier: tierEndToEnd, bound: 0.25, listed: true},
	{name: "allocs_per_read", unit: "1/read", tier: tierEndToEnd, bound: 0.01, listed: true},
	{name: "bytes_per_read", unit: "B", tier: tierEndToEnd, bound: 0.02, listed: true},
	{name: "fail_share", unit: "ratio", tier: tierEndToEnd, bound: 0},

	// Whole-program figures of the untraced run, demoted from the end-to-end
	// tier: none repeats within the 5-10 % the issue tabled for it (ten-seed
	// interquartile spreads of 4-22 %, medians of the same code moving 27-45 %
	// between the sizing box's slow and fast spells; README.md, "Noise-floor
	// calibration"). They are reported and never gated.
	{name: "reads_per_s", unit: "reads/s", tier: tierPerLayer, higher: true},
	{name: "cpu_us_per_read", unit: "us", tier: tierPerLayer},
	{name: "peak_rss_mb", unit: "MiB", tier: tierPerLayer},
	{name: "serve.p50_ms", unit: "ms", tier: tierPerLayer},
	{name: "serve.p90_ms", unit: "ms", tier: tierPerLayer},
	{name: "serve.p99_ms", unit: "ms", tier: tierPerLayer},
	{name: "serve.max_ms", unit: "ms", tier: tierPerLayer},
	{name: "serve.closed_p50_ms", unit: "ms", tier: tierPerLayer},
	{name: "serve.gen_lag_ms_p99", unit: "ms", tier: tierPerLayer},
	{name: "serve.open_load_share", unit: "ratio", tier: tierPerLayer},

	// The traced run's metrics: single-layer probes and front-end replays.
	{name: "gbz.load_ms", unit: "ms", tier: tierPerLayer, listed: true},
	{name: "seeds.read_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "core.newmapper_ms", unit: "ms", tier: tierPerLayer, listed: true},
	{name: "giraffe.buildindexes_ms", unit: "ms", tier: tierPerLayer, listed: true},
	{name: "gbwt.record_decode_ns", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "gbwt.record_decode_allocs", unit: "count", tier: tierPerLayer, listed: true},
	{name: "gbwt.extend_uncached_ns", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "gbwt.extend_private_ns", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "gbwt.extend_snapshot_ns", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "gbwt.cache_build_ns", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "gbwt.epoch_publish_ms", unit: "ms", tier: tierPerLayer, listed: true},
	{name: "gbwt.epoch_publishes", unit: "count", tier: tierPerLayer, higher: true, listed: true},
	{name: "gbwt.hit_ratio", unit: "ratio", tier: tierPerLayer, higher: true, listed: true},
	{name: "gbwt.shared_hit_ratio", unit: "ratio", tier: tierPerLayer, higher: true, listed: true},
	{name: "gbwt.rehashes_per_kread", unit: "count", tier: tierPerLayer, listed: true},
	{name: "cluster.ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "cluster.allocs_per_read", unit: "1/read", tier: tierPerLayer, listed: true},
	{name: "extend.ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "extend.allocs_per_read", unit: "1/read", tier: tierPerLayer, listed: true},
	{name: "extend.bytes_per_read", unit: "B", tier: tierPerLayer, listed: true},
	{name: "extend.extensions_per_read", unit: "1/read", tier: tierPerLayer, higher: true, listed: true},
	{name: "extend.mapped_share", unit: "ratio", tier: tierPerLayer, higher: true, listed: true},
	{name: "core.maprecord_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "core.mapbatch_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "core.run_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "core.writecsv_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "core.writecsv_allocs_per_read", unit: "1/read", tier: tierPerLayer, listed: true},
	{name: "sched.claim_ns_per_batch", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "sched.imbalance", unit: "ratio", tier: tierPerLayer, listed: true},
	{name: "sched.parallel_eff", unit: "ratio", tier: tierPerLayer, higher: true, listed: true},
	{name: "fastq.parse_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "giraffe.preprocess_us_per_read", unit: "us", tier: tierPerLayer, listed: true},
	{name: "pipeline.ingest_us_per_read", unit: "us", tier: tierPerLayer, listed: true},
	{name: "pipeline.map_us_per_read", unit: "us", tier: tierPerLayer, listed: true},
	{name: "pipeline.emit_us_per_read", unit: "us", tier: tierPerLayer, listed: true},
	{name: "pipeline.batch_latency_ms_p50", unit: "ms", tier: tierPerLayer, listed: true},
	{name: "pipeline.run_ns_per_read", unit: "ns", tier: tierPerLayer, listed: true},
	{name: "pipeline.submit_us_p50", unit: "us", tier: tierPerLayer, listed: true},
	{name: "pipeline.submit_us_p90", unit: "us", tier: tierPerLayer, listed: true},
	{name: "serve.json_decode_us", unit: "us", tier: tierPerLayer, listed: true},
	{name: "serve.json_encode_us", unit: "us", tier: tierPerLayer, listed: true},
	{name: "serve.handler_us_p50", unit: "us", tier: tierPerLayer, listed: true},
	{name: "serve.self_us", unit: "us", tier: tierPerLayer, listed: true},
	{name: "serve.http_rtt_us_p50", unit: "us", tier: tierPerLayer, listed: true},
	{name: "obs.overhead_share", unit: "ratio", tier: tierPerLayer, listed: true},
	{name: "trace.coverage", unit: "ratio", tier: tierPerLayer, higher: true, listed: true},
	{name: "trace.overhead_share", unit: "ratio", tier: tierPerLayer, listed: true},
	{name: "trace.untraced_reads_per_s", unit: "reads/s", tier: tierPerLayer, higher: true, listed: true},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range catalogue {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// Metric is one reported number with a measure of how well the run resolved
// it. Value is the estimate over the whole timed window. Q1, Q3 and N
// describe sub-estimates: the same estimator applied to each of up to
// spreadSlices equal slices of the window (or the repetitions themselves for
// a repeated measurement like setup_s). Their interquartile range says how
// much the estimate moves when it rests on a sixth of the data — an upper
// bound on its own uncertainty, and what -compare calls a metric unresolved
// by. N is 1 for a single total.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// spreadSlices is how many slices a timed window is cut into for the
// sub-estimates.
const spreadSlices = 6

// Result is what one child process reports for one workload and one tier;
// a run of both tiers merges the two per workload.
type Result struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Threads  int     `json:"threads"`
	Reads    int     `json:"reads_per_pass"`
	GenS     float64 `json:"gen_s"`
	// Attempted and Failed count operations checked against the reference
	// pass (reads for the pass workloads, requests for serve_http).
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	FailNote  string `json:"fail_note,omitempty"`
	// OutputSHA256 is the digest of the workload's output: the proxy's CSV
	// for the pass workloads, the results of one sweep of the request pool
	// for serve_http. The traced replay must reproduce it.
	OutputSHA256 string            `json:"output_sha256"`
	Metrics      map[string]Metric `json:"metrics"`
	// Layers is the traced replay's per-layer span summary.
	Layers []LayerSummary `json:"layers,omitempty"`
	// Notes are remarks for the reader of the table.
	Notes []string `json:"notes,omitempty"`
}

// Document is the JSON document a run prints, the input of -compare.
type Document struct {
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Quick     bool      `json:"quick,omitempty"`
	Threads   int       `json:"threads"`
	Workloads []*Result `json:"workloads"`
}

// record stores a metric: its value and the sub-estimates behind its spread.
func (r *Result) record(name string, value float64, sub []float64) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	q1, _, q3 := quartiles(sub)
	r.Metrics[name] = Metric{Value: value, Unit: def.unit, Q1: q1, Q3: q3, N: len(sub)}
}

// set records a metric as the median of repeated measurements (or the one
// measurement).
func (r *Result) set(name string, samples ...float64) {
	r.record(name, median(samples), samples)
}

// setSliced records a metric as est over all the window's samples, with est
// over each slice of the window as the sub-estimates.
func (r *Result) setSliced(name string, samples []float64, est func([]float64) float64) {
	k := min(spreadSlices, len(samples))
	sub := make([]float64, k)
	for i := range sub {
		sub[i] = est(samples[i*len(samples)/k : (i+1)*len(samples)/k])
	}
	r.record(name, est(samples), sub)
}

// fastQuartile is the estimator of the timing metrics: the quartile on the
// metric's better side (the third quartile of a rate, the first of a cost)
// instead of the median. On a shared machine interference only ever slows a
// sample, so the faster samples sit closer to the code's own cost: across
// ten runs the fast quartile's spread was a bit over half the median's
// (README.md).
func fastQuartile(higher bool) func([]float64) float64 {
	return func(samples []float64) float64 {
		q1, _, q3 := quartiles(samples)
		if higher {
			return q3
		}
		return q1
	}
}

// mean is the estimator of the per-read allocation metrics: the samples are
// per-pass totals over equal read counts, so their mean is the total over
// the window divided by its reads.
func mean(samples []float64) float64 {
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// merge folds the results of one workload's runs (one per tier) into one.
// Every run must have produced the same output: a traced replay whose digest
// differs from the untraced run's measured a different program, and that
// fails the workload.
func merge(results []*Result) *Result {
	out := *results[0]
	out.Metrics = map[string]Metric{}
	out.Notes = nil
	out.Attempted, out.Failed, out.FailNote = 0, 0, ""
	for _, r := range results {
		for k, v := range r.Metrics {
			out.Metrics[k] = v
		}
		out.Layers = append(out.Layers, r.Layers...)
		out.Notes = append(out.Notes, r.Notes...)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if out.FailNote == "" {
			out.FailNote = r.FailNote
		}
		if r.OutputSHA256 != out.OutputSHA256 {
			out.Failed++
			out.FailNote = fmt.Sprintf("traced replay digest %s differs from the untraced run's %s", r.OutputSHA256, out.OutputSHA256)
		}
	}
	out.set("fail_share", float64(out.Failed)/float64(out.Attempted))
	return &out
}

// printTable renders one workload's result as text, the end-to-end rows
// first.
func printTable(w io.Writer, r *Result) {
	fmt.Fprintf(w, "\n%s: seed %d, %d threads, %d reads/pass, gen %.2fs, checked %d ops, %d failed\n  output sha256 %s\n",
		r.Workload, r.Seed, r.Threads, r.Reads, r.GenS, r.Attempted, r.Failed, r.OutputSHA256)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  metric\tvalue\tunit\tq1 .. q3\tn\n")
	for _, def := range catalogue {
		m, ok := r.Metrics[def.name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%.6g .. %.6g\t%d\n", def.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(tw, "  traced layer\tspans\ttotal ms\tself ms\tself share\n")
		for _, l := range r.Layers {
			fmt.Fprintf(tw, "  %s\t%d\t%.2f\t%.2f\t%.3f\n", l.Name, l.Spans, l.TotalMs, l.SelfMs, l.SelfShare)
		}
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
