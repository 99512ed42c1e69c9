// Package trace reimplements the paper's low-overhead instrumentation
// header (§III): kernels record named-region timestamps into per-thread
// buffers (the original used a UThash table) and nothing is aggregated or
// written until the end of the run, so instrumentation does not perturb the
// execution being measured. The recorded spans regenerate the paper's
// Figure 2 (per-thread timeline) and Figure 3 (per-region runtime shares).
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Region names used across the pipeline, mirroring the paper's instrumented
// regions.
const (
	RegionIO         = "io"
	RegionIngest     = "ingest"
	RegionEmit       = "emit"
	RegionMapBatch   = "map_batch"
	RegionCacheBuild = "cache_build"
	RegionParse      = "parse_input"
	RegionMinimizer  = "find_minimizers"
	RegionSeeds      = "make_seeds"
	RegionCluster    = "cluster_seeds"
	RegionThresholdC = "process_until_threshold_c"
	RegionExtend     = "extend"
	RegionPostproc   = "postprocess"
	RegionAlign      = "align"
)

// Span is one recorded region execution on one worker.
type Span struct {
	Region string
	Start  time.Duration // offset from the recorder's epoch
	Dur    time.Duration
}

// Recorder collects spans with per-worker buffers (no locking on the record
// path). The zero worker count is invalid; use NewRecorder. A nil *Recorder
// is the disabled recorder: Grow and Record on it do nothing, so the kernels
// record unconditionally.
type Recorder struct {
	epoch   time.Time
	buffers [][]Span
}

// NewRecorder creates a recorder for the given worker count.
func NewRecorder(workers int) *Recorder {
	return NewRecorderEpoch(workers, time.Now())
}

// NewRecorderEpoch creates a recorder whose span offsets are measured from
// the given epoch instead of the construction time — for tests that need
// byte-stable exports.
func NewRecorderEpoch(workers int, epoch time.Time) *Recorder {
	if workers < 1 {
		workers = 1
	}
	return &Recorder{
		epoch:   epoch,
		buffers: make([][]Span, workers),
	}
}

// Workers returns the number of per-worker buffers.
func (r *Recorder) Workers() int { return len(r.buffers) }

// Grow extends the recorder to at least `workers` per-worker buffers, so a
// consumer with extra stages (e.g. the streaming pipeline's ingest and emit
// goroutines) can record alongside the map workers. Not safe to call while
// spans are being recorded; call it before the run starts.
func (r *Recorder) Grow(workers int) {
	if r == nil {
		return
	}
	for len(r.buffers) < workers {
		r.buffers = append(r.buffers, nil)
	}
}

// Record adds a completed span: time the region with t0 := time.Now() and
// pass time.Since(t0). Each worker must only be driven by one goroutine at a
// time.
func (r *Recorder) Record(worker int, region string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.buffers[worker] = append(r.buffers[worker], Span{
		Region: region,
		Start:  start.Sub(r.epoch),
		Dur:    dur,
	})
}

// Spans returns worker w's spans in record order. The slice aliases the
// recorder's storage; only read it after the run completes.
func (r *Recorder) Spans(worker int) []Span { return r.buffers[worker] }

// SortedSpans returns a copy of worker w's spans in canonical order: by
// start offset, then region name, then duration. Record order is the order
// regions ended in, not the order they started in, so exporters that must be
// deterministic across runs (timeline CSV, Perfetto) sort first.
func (r *Recorder) SortedSpans(worker int) []Span {
	spans := append([]Span(nil), r.buffers[worker]...)
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		if spans[a].Region != spans[b].Region {
			return spans[a].Region < spans[b].Region
		}
		return spans[a].Dur < spans[b].Dur
	})
	return spans
}

// RegionTotals aggregates total duration per region, per worker.
func (r *Recorder) RegionTotals() []map[string]time.Duration {
	out := make([]map[string]time.Duration, len(r.buffers))
	for w, spans := range r.buffers {
		m := make(map[string]time.Duration)
		for _, s := range spans {
			m[s.Region] += s.Dur
		}
		out[w] = m
	}
	return out
}

// RegionShare is one row of the Figure 3 aggregation: a region's share of
// the summed instrumented time, averaged across workers.
type RegionShare struct {
	Region  string
	Total   time.Duration
	Percent float64
}

// Shares computes per-region shares of total instrumented time across all
// workers, descending. exclude lists regions (e.g. io, parse_input) to drop
// before computing percentages, as the paper does for Figure 3.
func (r *Recorder) Shares(exclude ...string) []RegionShare {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	totals := make(map[string]time.Duration)
	var grand time.Duration
	for _, spans := range r.buffers {
		for _, s := range spans {
			if skip[s.Region] {
				continue
			}
			totals[s.Region] += s.Dur
			grand += s.Dur
		}
	}
	out := make([]RegionShare, 0, len(totals))
	for region, d := range totals {
		share := RegionShare{Region: region, Total: d}
		if grand > 0 {
			share.Percent = 100 * float64(d) / float64(grand)
		}
		out = append(out, share)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Total != out[b].Total {
			return out[a].Total > out[b].Total
		}
		return out[a].Region < out[b].Region
	})
	return out
}

// WriteTimelineCSV dumps every span as CSV (worker, region, start_us,
// dur_us) — the Figure 2 raw data. Rows are emitted in canonical order
// (worker, then start offset, then region, then duration) rather than
// record order, so two runs that produced the same spans write
// byte-identical files that golden tests and run-to-run diffs can compare
// directly.
func (r *Recorder) WriteTimelineCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "worker,region,start_us,dur_us"); err != nil {
		return err
	}
	for worker := range r.buffers {
		for _, s := range r.SortedSpans(worker) {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d\n",
				worker, s.Region, s.Start.Microseconds(), s.Dur.Microseconds()); err != nil {
				return err
			}
		}
	}
	return nil
}
