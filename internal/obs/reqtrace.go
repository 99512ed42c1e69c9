package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// This file is the request-lifecycle tracer behind the serving path: every
// /map request carries a trace.ID (traceparent header), accumulates a span
// tree — admit (parse/admission/extraction on the handler), queue_wait and
// map_subbatch per pipeline.Session sub-batch (worker-attributed, kernel
// nanos folded in from core.Mapper), emit, and cancel markers — and is then
// offered to a sharded tail-based sampler: every non-2xx request is retained
// (up to a cap), while 2xx requests compete for a top-K-by-latency reservoir
// (the same reservoir type as the slow-read exemplars, reservoir.go), so the
// common fast-2xx path is rejected lock-free and recycles its trace buffer
// with zero allocations. Sampled traces are served at /traces, exported as
// Perfetto tracks (one per request), and summarised into the run manifest.

// Request-lifecycle span names. Every AddSpan call site must pass one of
// these (or another named constant) — the metricname analyzer enforces it, so
// the span vocabulary stays a greppable closed set.
const (
	// SpanAdmit covers the serve-side preamble: body parse, per-client and
	// queue admission, and seed extraction, ending when the request is
	// submitted to (or rejected by) the mapping session.
	SpanAdmit = "admit"
	// SpanQueueWait is one sub-batch's time in the session claim queue, from
	// enqueue to a worker claiming it.
	SpanQueueWait = "queue_wait"
	// SpanMapSubbatch is one sub-batch's time on a mapper worker; its kernel
	// fields split the span into cluster/extend/cache-build nanos.
	SpanMapSubbatch = "map_subbatch"
	// SpanEmit covers response construction and serialisation.
	SpanEmit = "emit"
	// SpanCancel marks a sub-batch skipped outright because the request's
	// deadline fired while it was still queued, or (worker -1) a request whose
	// deadline fired before it was queued at all: during seed extraction, or
	// by the time the session saw it.
	SpanCancel = "cancel"
)

// ReqSpan is one node of a request's span tree. Offsets are nanoseconds from
// the tracer's epoch so spans from the HTTP handler and from different
// pipeline workers share one timeline.
type ReqSpan struct {
	Name string `json:"name"`
	// Worker is the pipeline worker that executed the span; -1 for spans
	// recorded on the HTTP handler goroutine.
	Worker     int   `json:"worker"`
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
	// Kernel attribution, folded in from core.Mapper for map_subbatch spans:
	// how much of the span went to the paper's two critical functions and to
	// the per-batch cache rebuild.
	ClusterNanos    int64 `json:"cluster_ns,omitempty"`
	ExtendNanos     int64 `json:"extend_ns,omitempty"`
	CacheBuildNanos int64 `json:"cache_build_ns,omitempty"`
	// Canceled marks a map_subbatch stopped at a record boundary by the
	// request deadline (cancel spans are implicitly canceled).
	Canceled bool `json:"canceled,omitempty"`
}

// SubBatch carries per-sub-batch request attribution into
// core.Mapper.MapBatchUntil and back: the owning request's trace ID flows
// down (tagging slow-read exemplars), the kernel nano totals flow up (tagging
// the map_subbatch span). A nil *SubBatch disables both, so the batch
// pipeline pays one nil check per record.
type SubBatch struct {
	Trace           trace.ID
	ClusterNanos    int64
	ExtendNanos     int64
	CacheBuildNanos int64
}

// ReqTrace is one in-flight request's span accumulator. Handed out by
// ReqTracer.Start, filled via AddSpan/AddMapSpan from the HTTP handler and
// any pipeline worker (concurrently — appends lock), and judged by
// ReqTracer.Finish. All methods are nil-safe so untraced paths need no
// branches.
type ReqTrace struct {
	t      *ReqTracer
	id     trace.ID
	shard  int
	client string
	reads  int
	start  int64 // nanos since tracer epoch
	status int
	dur    int64

	mu    sync.Mutex
	spans []ReqSpan
}

// ID returns the request's trace ID (zero for a nil trace).
func (rt *ReqTrace) ID() trace.ID {
	if rt == nil {
		return trace.ID{}
	}
	return rt.id
}

// SetClient attributes the trace to a client identity (call before Finish).
func (rt *ReqTrace) SetClient(client string) {
	if rt != nil {
		rt.client = client
	}
}

// SetReads records the request's read count (call before Finish).
func (rt *ReqTrace) SetReads(n int) {
	if rt != nil {
		rt.reads = n
	}
}

// AddSpan appends one span. name must be a named constant (the metricname
// analyzer enforces it). Safe to call concurrently from several workers; a
// nil trace ignores the span.
func (rt *ReqTrace) AddSpan(name string, worker int, start time.Time, dur time.Duration) {
	if rt == nil {
		return
	}
	rt.append(ReqSpan{
		Name:       name,
		Worker:     worker,
		StartNanos: start.Sub(rt.t.epoch).Nanoseconds(),
		DurNanos:   dur.Nanoseconds(),
	})
}

// AddMapSpan appends the map_subbatch span for one mapped sub-batch, folding
// in the kernel nanos MapBatchUntil accumulated and whether the deadline
// stopped the kernel mid-batch.
func (rt *ReqTrace) AddMapSpan(worker int, start time.Time, dur time.Duration, sb *SubBatch, canceled bool) {
	if rt == nil {
		return
	}
	sp := ReqSpan{
		Name:       SpanMapSubbatch,
		Worker:     worker,
		StartNanos: start.Sub(rt.t.epoch).Nanoseconds(),
		DurNanos:   dur.Nanoseconds(),
		Canceled:   canceled,
	}
	if sb != nil {
		sp.ClusterNanos = sb.ClusterNanos
		sp.ExtendNanos = sb.ExtendNanos
		sp.CacheBuildNanos = sb.CacheBuildNanos
	}
	rt.append(sp)
}

func (rt *ReqTrace) append(sp ReqSpan) {
	rt.mu.Lock()
	rt.spans = append(rt.spans, sp)
	rt.mu.Unlock()
}

// reset clears the trace for reuse, keeping the span backing array.
func (rt *ReqTrace) reset() {
	rt.mu.Lock()
	rt.spans = rt.spans[:0]
	rt.mu.Unlock()
	rt.id, rt.client, rt.reads, rt.start, rt.status, rt.dur = trace.ID{}, "", 0, 0, 0, 0
}

// reqSpanPrealloc sizes a fresh trace's span buffer: admit + emit + a
// queue_wait/map_subbatch pair for a handful of sub-batches without growing.
const reqSpanPrealloc = 16

// reqShard is one sampler shard: the window's top-K 2xx traces by duration
// plus every non-2xx trace of the window, and a free list of recycled trace
// buffers feeding the zero-alloc Start path.
type reqShard struct {
	top  reservoir[*ReqTrace] // 2xx window reservoir, capacity k
	mu   sync.Mutex           // guards errs and free
	errs []*ReqTrace          // all non-2xx this window, capacity errCap
	free []*ReqTrace          // recycled buffers (only ever fed from the 2xx path)
}

// ReqTracer is the sharded tail-based request sampler. The sampling decision
// happens at Finish, when the outcome is known ("tail-based"): error-class
// requests are always kept, successful ones only if they rank among the
// shard's K slowest — the policy that keeps exactly the traces a p99/error
// investigation needs while the sunny-path request costs two lock-free checks
// and no allocation.
type ReqTracer struct {
	k      int
	errCap int // per shard
	epoch  time.Time
	shards []reqShard
	seq    atomic.Uint64 // shard spreader for zero trace IDs

	sampled *Counter // serve_trace_sampled_total: traces retained at Finish
	errKept *Counter // serve_trace_errors_kept_total
	dropped *Counter // serve_trace_dropped_total: non-2xx lost to the cap

	droppedN atomic.Int64 // authoritative drop count (metric mirrors it)

	run reservoir[*ReqTrace] // top-K 2xx across rotated windows

	mu      sync.Mutex
	runErrs []*ReqTrace // rotated non-2xx, capacity errCap*shards
}

// NewReqTracer sizes the sampler: one shard per expected concurrent finisher
// (the serving path uses the worker count), each retaining the k slowest
// successful requests per window plus up to errCap error-class requests.
// reg may be nil (no sampler metrics).
func NewReqTracer(shards, k, errCap int, reg *Registry) *ReqTracer {
	if shards < 1 {
		shards = 1
	}
	if k < 1 {
		k = 1
	}
	if errCap < 1 {
		errCap = 1
	}
	t := &ReqTracer{
		k:       k,
		errCap:  errCap,
		epoch:   time.Now(),
		shards:  make([]reqShard, shards),
		sampled: reg.Counter(MetricServeTraceSampled),
		errKept: reg.Counter(MetricServeTraceErrors),
		dropped: reg.Counter(MetricServeTraceDropped),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.top.init(k)
		sh.errs = make([]*ReqTrace, 0, errCap)
		sh.free = make([]*ReqTrace, 0, k+errCap)
	}
	t.run.init(k)
	return t
}

// K returns the per-shard 2xx retention (0 for a nil tracer).
func (t *ReqTracer) K() int {
	if t == nil {
		return 0
	}
	return t.k
}

// Epoch returns the tracer's time origin — span offsets are nanoseconds
// since this instant.
func (t *ReqTracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// shardFor spreads traces over shards by ID (stable: the same request always
// lands on the same shard) with a round-robin fallback for zero IDs.
func (t *ReqTracer) shardFor(id trace.ID) int {
	if id.IsZero() {
		return int(t.seq.Add(1) % uint64(len(t.shards)))
	}
	return int(id.Lo % uint64(len(t.shards)))
}

// Start opens a trace for one request. The returned trace comes from the
// shard's free list when possible, so a request that ends up not sampled
// completes a full Start → AddSpan → Finish cycle without allocating. A nil
// tracer returns a nil trace (every downstream method no-ops).
func (t *ReqTracer) Start(id trace.ID, client string) *ReqTrace {
	if t == nil {
		return nil
	}
	shard := t.shardFor(id)
	sh := &t.shards[shard]
	var rt *ReqTrace
	sh.mu.Lock()
	if n := len(sh.free); n > 0 {
		rt = sh.free[n-1]
		sh.free = sh.free[:n-1]
	}
	sh.mu.Unlock()
	if rt == nil {
		rt = &ReqTrace{spans: make([]ReqSpan, 0, reqSpanPrealloc)}
	}
	rt.t = t
	rt.id = id
	rt.shard = shard
	rt.client = client
	rt.start = time.Since(t.epoch).Nanoseconds()
	return rt
}

// Finish closes the trace with the request's final status and makes the
// tail-based sampling decision: non-2xx traces are always retained (counted
// as dropped past the per-shard cap), 2xx traces enter the shard's top-K
// duration reservoir or — the common case — fail the atomic floor check and
// recycle their buffer. Call exactly once per Start; nil-safe.
func (t *ReqTracer) Finish(rt *ReqTrace, status int) {
	if t == nil || rt == nil {
		return
	}
	t.finishDur(rt, status, time.Since(t.epoch).Nanoseconds()-rt.start)
}

// finishDur is Finish with an explicit duration (tests drive deterministic
// reservoir states through it).
func (t *ReqTracer) finishDur(rt *ReqTrace, status int, durNanos int64) {
	rt.status = status
	rt.dur = durNanos
	sh := &t.shards[rt.shard]
	if status < 200 || status >= 300 {
		sh.mu.Lock()
		if len(sh.errs) < t.errCap {
			sh.errs = append(sh.errs, rt)
			sh.mu.Unlock()
			t.errKept.Inc(rt.shard)
			t.sampled.Inc(rt.shard)
			return
		}
		sh.mu.Unlock()
		// Cap hit: the trace is lost, visibly. It is NOT recycled — late
		// worker spans may still arrive on a canceled request's trace, and a
		// recycled buffer would splice them into a different request.
		t.droppedN.Add(1)
		t.dropped.Inc(rt.shard)
		return
	}
	// 2xx tail sampling: one atomic load rejects anything faster than the
	// K-th slowest retained request, and the buffer goes straight back to the
	// free list — a successful request is fully done with its trace by the
	// time Finish runs, and it was never retained, so reuse is safe. A trace
	// that ranks displaces the shard's fastest retained one, which is dropped,
	// not recycled: a Snapshot in progress may still be reading it.
	if sh.top.offer(durNanos, rt) {
		t.sampled.Inc(rt.shard)
	} else {
		t.recycle(sh, rt)
	}
}

// recycle resets a 2xx trace buffer and returns it to the shard's free list
// (dropped on the floor when the list is full).
func (t *ReqTracer) recycle(sh *reqShard, rt *ReqTrace) {
	rt.reset()
	sh.mu.Lock()
	if len(sh.free) < cap(sh.free) {
		sh.free = append(sh.free, rt)
	}
	sh.mu.Unlock()
}

// Rotate closes the sampling window: every shard's 2xx reservoir is folded
// into the run-level top-K, its error list into the run-level error archive
// (bounded at errCap x shards, overflow counted as dropped), and the shard
// floors reset so the next window re-learns its tail. The stack's sampler
// rotates once per tick, mirroring SlowReads.
func (t *ReqTracer) Rotate() {
	if t == nil {
		return
	}
	var errs []*ReqTrace
	for i := range t.shards {
		sh := &t.shards[i]
		// Traces the run-level reservoir displaces are dropped as well.
		sh.top.foldInto(&t.run)
		sh.mu.Lock()
		errs = append(errs, sh.errs...)
		sh.errs = make([]*ReqTrace, 0, t.errCap)
		sh.mu.Unlock()
	}
	runErrCap := t.errCap * len(t.shards)
	t.mu.Lock()
	for _, rt := range errs {
		if len(t.runErrs) < runErrCap {
			t.runErrs = append(t.runErrs, rt)
		} else {
			t.droppedN.Add(1)
			t.dropped.Inc(0)
		}
	}
	t.mu.Unlock()
}

// SampledTrace is one retained request in scrape form: identity, outcome,
// and the span tree, plus (filled by the serving layer) the slow-read
// exemplars attributed to this request.
type SampledTrace struct {
	TraceID    trace.ID   `json:"trace_id"`
	Client     string     `json:"client,omitempty"`
	Status     int        `json:"status"`
	Reads      int        `json:"reads,omitempty"`
	StartNanos int64      `json:"start_ns"`
	DurNanos   int64      `json:"dur_ns"`
	Spans      []ReqSpan  `json:"spans"`
	SlowReads  []Exemplar `json:"slow_reads,omitempty"`
}

// ReqTraceSnapshot is the /traces payload: every currently retained trace
// (window and rotated run views merged), sorted by start offset then ID.
type ReqTraceSnapshot struct {
	K       int            `json:"k"`
	Dropped int64          `json:"dropped"`
	Traces  []SampledTrace `json:"traces"`
}

// Snapshot copies out every retained trace. Safe concurrently with Start,
// Finish, AddSpan, and Rotate; spans recorded after the snapshot simply miss
// it. Nil-safe.
func (t *ReqTracer) Snapshot() ReqTraceSnapshot {
	if t == nil {
		return ReqTraceSnapshot{}
	}
	var refs []*ReqTrace
	for i := range t.shards {
		sh := &t.shards[i]
		refs = sh.top.values(refs)
		sh.mu.Lock()
		refs = append(refs, sh.errs...)
		sh.mu.Unlock()
	}
	refs = t.run.values(refs)
	t.mu.Lock()
	refs = append(refs, t.runErrs...)
	t.mu.Unlock()
	snap := ReqTraceSnapshot{K: t.k, Dropped: t.droppedN.Load()}
	snap.Traces = make([]SampledTrace, 0, len(refs))
	for _, rt := range refs {
		st := SampledTrace{
			TraceID:    rt.id,
			Client:     rt.client,
			Status:     rt.status,
			Reads:      rt.reads,
			StartNanos: rt.start,
			DurNanos:   rt.dur,
		}
		rt.mu.Lock()
		st.Spans = append([]ReqSpan(nil), rt.spans...)
		rt.mu.Unlock()
		snap.Traces = append(snap.Traces, st)
	}
	sort.Slice(snap.Traces, func(i, j int) bool {
		a, b := &snap.Traces[i], &snap.Traces[j]
		if a.StartNanos != b.StartNanos {
			return a.StartNanos < b.StartNanos
		}
		if a.TraceID.Hi != b.TraceID.Hi {
			return a.TraceID.Hi < b.TraceID.Hi
		}
		return a.TraceID.Lo < b.TraceID.Lo
	})
	return snap
}

// ReqTraceSummary is the manifest's record of the sampler's run: how many
// traces were retained and lost, the status mix, and the slowest retained
// request — enough to decide whether the full /traces artifact is worth
// opening.
type ReqTraceSummary struct {
	Sampled   int            `json:"sampled"`
	Errors    int            `json:"errors"`
	Dropped   int64          `json:"dropped"`
	ByStatus  map[string]int `json:"by_status,omitempty"`
	SlowestID trace.ID       `json:"slowest_trace_id"`
	SlowestMs float64        `json:"slowest_ms"`
}

// Summary condenses the current snapshot (nil tracer: nil summary).
func (t *ReqTracer) Summary() *ReqTraceSummary {
	if t == nil {
		return nil
	}
	snap := t.Snapshot()
	sum := &ReqTraceSummary{
		Sampled:  len(snap.Traces),
		Dropped:  snap.Dropped,
		ByStatus: make(map[string]int),
	}
	for i := range snap.Traces {
		tr := &snap.Traces[i]
		sum.ByStatus[statusKey(tr.Status)]++
		if tr.Status < 200 || tr.Status >= 300 {
			sum.Errors++
		}
		if tr.DurNanos > int64(sum.SlowestMs*1e6) {
			sum.SlowestMs = float64(tr.DurNanos) / 1e6
			sum.SlowestID = tr.TraceID
		}
	}
	return sum
}

// statusKey buckets an HTTP status for the summary's mix map.
func statusKey(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status == 429:
		return "429"
	case status == 504:
		return "504"
	default:
		return "other"
	}
}
