package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// Submission errors. ErrQueueFull is the admission-control signal: the
// request never entered the queue, so the caller can reject it cheaply
// (HTTP 429) instead of queueing unboundedly.
var (
	ErrQueueFull     = errors.New("pipeline: session queue full")
	ErrSessionClosed = errors.New("pipeline: session closed")
)

// BatchMapper is the mapping engine a Session drives — the cancellable
// batch kernel of core.Mapper, abstracted so tests can substitute a
// controllable fake. *core.Mapper satisfies it.
type BatchMapper interface {
	MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (gbwt.CacheStats, int)
}

// EpochPublisher is the optional batch-boundary hook of the epoch-published
// shared cache: a Session probes its BatchMapper for it once at
// construction and, when present, ticks it after every mapped sub-batch.
// *core.Mapper satisfies it (a no-op unless the epoch cache is enabled);
// test fakes that only implement BatchMapper are unaffected.
type EpochPublisher interface {
	TryPublishEpoch(worker int) bool
}

// Session is the package's one worker pool and its reusable submit API: a
// Session keeps the pool and the loaded substrate hot and maps request after
// request — the serving building block behind cmd/giraffed — and Run drives
// a private one for the length of a stream.
//
// Each Submit is split into sub-batches of Options.BatchSize (preserving the
// per-batch CachedGBWT discipline, §VII-B) which enter the bounded claim
// queue under the configured scheduling policy. Admission is all-or-nothing
// and non-blocking: a request whose sub-batches would overflow Options.Depth
// is rejected with ErrQueueFull before any of them queue. Request contexts
// cancel in-flight work: a deadline that fires while sub-batches are queued
// skips them entirely, and one that fires while a worker is mapping stops
// the kernel at the next record boundary (core.Mapper.MapBatchUntil).
type Session struct {
	m    BatchMapper
	ep   EpochPublisher  // non-nil when m also publishes epochs
	rec  *trace.Recorder // non-nil when m is a core.Mapper built with one
	opts Options
	cq   *claimQueue
	wg   sync.WaitGroup

	closed    atomic.Bool
	nextIndex atomic.Int64 // global read index: slow-exemplar attribution

	mu    sync.Mutex
	cache gbwt.CacheStats

	// processed[w] counts the records worker w mapped and stolen the claims
	// that were steals — what sched.Stats reports for a batch run. Each
	// processed slot is written by its worker alone, unsynchronised, so Run
	// reads them only after Close.
	processed []int64
	stolen    atomic.Int64

	// labels carry the request-class pprof labels the pool workers wear, so
	// a -profile capture splits map time between the serving path and batch
	// runs.
	labels *obs.ProfLabels

	// Metric handles are nil-safe no-ops when their registry is nil: the
	// serve_* ones always are for a stream run's pool.
	submitShard   int
	qDepth        *obs.Gauge
	inFlight      *obs.Gauge
	requests      *obs.Counter
	reads         *obs.Counter
	queueRejects  *obs.Counter
	canceled      *obs.Counter
	canceledReads *obs.Counter
	claims        *obs.Counter
	steals        *obs.Counter
	pipeReads     *obs.Counter
	pipeBatches   *obs.Counter
	hService      *obs.Histogram
	hQueueWait    *obs.Histogram
	hMap          *obs.Histogram
}

// sjob is one queued sub-batch of a submitted request.
type sjob struct {
	req *srequest
	// stop is what the worker polls: the owning request's flag for a Submit,
	// the run-wide failure flag for a streamed batch.
	stop   *atomic.Bool
	recs   []seeds.ReadSeeds
	out    [][]extend.Extension // disjoint window into the request's results
	base   int                  // global read index of recs[0]
	enq    time.Time
	mapDur time.Duration // set by the worker; read after req.done closes
	// tr is the request's trace (nil when the caller is untraced); sb is
	// this sub-batch's kernel attribution, passed into MapBatchUntil.
	tr *obs.ReqTrace
	sb obs.SubBatch
}

// srequest is the shared completion state of one Submit.
type srequest struct {
	stop      atomic.Bool // request context done: skip / stop mapping
	remaining atomic.Int64
	done      chan struct{}
}

// submission is everything one Submit queues, in one allocation: the
// completion state and, for the request that fits one sub-batch (every small
// /map request), its only job.
type submission struct {
	srequest
	one [1]sjob
}

// NewSession starts the persistent worker pool. reg may be nil (no
// metrics); when set, the session records the request-scoped serving
// metrics plus the same pipeline/scheduler counters a streaming run does, so
// /progress and the flight recorder work unchanged on serving runs.
func NewSession(m BatchMapper, opts Options, reg *obs.Registry) (*Session, error) {
	if m == nil {
		return nil, errors.New("pipeline: nil mapper")
	}
	opts = opts.normalize()
	return startSession(m, opts, reg, reg, obs.NewProfLabels(obs.ClassServe, opts.Workers)), nil
}

// startSession builds the pool over normalized opts and starts its workers.
// The pipeline/scheduler series go to reg and the request-scoped serve_*
// series to serveReg, which Run leaves nil: its pool then holds nil handles
// for them and registers none, with no branch in the worker loop.
func startSession(m BatchMapper, opts Options, reg, serveReg *obs.Registry, labels *obs.ProfLabels) *Session {
	// The first Workers shards are map workers: scrapes derive the claim
	// imbalance and steal-share gauges over exactly that population.
	reg.SetWorkerShards(opts.Workers)
	s := &Session{
		m:         m,
		opts:      opts,
		cq:        newClaimQueue(opts.Scheduler, opts.Workers, opts.Depth),
		processed: make([]int64, opts.Workers),
		labels:    labels,

		submitShard:   opts.Workers,
		qDepth:        serveReg.Gauge(obs.MetricServeQueueDepth),
		inFlight:      serveReg.Gauge(obs.MetricServeInFlight),
		requests:      serveReg.Counter(obs.MetricServeRequests),
		reads:         serveReg.Counter(obs.MetricServeReads),
		queueRejects:  serveReg.Counter(obs.MetricServeQueueRejects),
		canceled:      serveReg.Counter(obs.MetricServeCanceled),
		canceledReads: serveReg.Counter(obs.MetricServeCanceledReads),
		claims:        reg.Counter(obs.MetricSchedClaims),
		steals:        reg.Counter(obs.MetricSchedSteals),
		pipeReads:     reg.Counter(obs.MetricPipelineReads),
		pipeBatches:   reg.Counter(obs.MetricPipelineBatches),
		hService:      serveReg.Histogram(obs.MetricServeServiceLatency),
		hQueueWait:    serveReg.Histogram(obs.MetricServeQueueWait),
		hMap:          reg.Histogram(obs.MetricStageMap),
	}
	if ep, ok := m.(EpochPublisher); ok {
		s.ep = ep
	}
	if cm, ok := m.(*core.Mapper); ok {
		s.rec = cm.Options().Trace
	}
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// Options returns the session's normalized options (Depth is the admission
// bound in sub-batches).
func (s *Session) Options() Options { return s.opts }

// Submit maps recs and returns one extension set per record, in request
// order. It blocks until the request completes or ctx is done; admission is
// immediate (ErrQueueFull, no partial queueing). On a context error the
// results are discarded: queued sub-batches are skipped and the in-flight
// one stops at the next record boundary, both visible in the
// serve_canceled_* counters.
func (s *Session) Submit(ctx context.Context, recs []seeds.ReadSeeds) ([][]extend.Extension, error) {
	return s.SubmitTraced(ctx, recs, nil)
}

// SubmitTraced is Submit with request-trace attribution: every sub-batch the
// request spawns records queue_wait and map_subbatch spans (cancel markers
// for skipped ones, and one for a request whose context is done on arrival)
// into rt, worker-attributed and carrying the kernel nanos
// MapBatchUntil accumulates, and the request's trace ID rides into the
// slow-read exemplars. A nil rt is exactly Submit.
func (s *Session) SubmitTraced(ctx context.Context, recs []seeds.ReadSeeds, rt *obs.ReqTrace) ([][]extend.Extension, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	if err := ctx.Err(); err != nil {
		// Expired before it was queued: no worker will see it, so the
		// cancellation is marked here.
		rt.AddSpan(obs.SpanCancel, -1, time.Now(), 0)
		return nil, err
	}
	out := make([][]extend.Extension, len(recs))
	if len(recs) == 0 {
		return out, nil
	}
	bs := s.opts.BatchSize
	njobs := (len(recs) + bs - 1) / bs
	sub := &submission{}
	req := &sub.srequest
	req.done = make(chan struct{})
	req.remaining.Store(int64(njobs))
	jobs := sub.one[:]
	if njobs > 1 {
		jobs = make([]sjob, njobs)
	}
	base := int(s.nextIndex.Add(int64(len(recs)))) - len(recs)
	now := time.Now()
	for i := range jobs {
		lo := i * bs
		hi := min(lo+bs, len(recs))
		jobs[i] = sjob{
			req: req, stop: &req.stop, recs: recs[lo:hi], out: out[lo:hi], base: base + lo, enq: now,
		}
		if rt != nil {
			jobs[i].tr = rt
			jobs[i].sb.Trace = rt.ID()
		}
	}

	if !s.cq.tryPushAll(jobs) {
		if s.closed.Load() {
			return nil, ErrSessionClosed
		}
		s.queueRejects.Inc(s.submitShard)
		return nil, ErrQueueFull
	}
	s.qDepth.Add(s.submitShard, int64(njobs))
	s.inFlight.Add(s.submitShard, 1)
	s.requests.Inc(s.submitShard)
	defer s.inFlight.Add(s.submitShard, -1)

	select {
	case <-req.done:
		// The stop flag is raised only below, after which nothing waits on
		// done: a request that completes here was mapped in full.
		s.hService.Observe(s.submitShard, time.Since(now))
		s.reads.Add(s.submitShard, int64(len(recs)))
		return out, nil
	case <-ctx.Done():
		// The stop flag, not ctx itself, is what workers poll: one atomic load
		// per record instead of a mutex-guarded ctx.Err. Workers finish or skip
		// the remaining sub-batches on their own; the jobs keep recs and the
		// result slices alive until then.
		req.stop.Store(true)
		s.hService.Observe(s.submitShard, time.Since(now))
		return nil, ctx.Err()
	}
}

// worker is one pool member and the package's only claim → map → account
// loop: claim, map (unless the job is already stopped), account, signal
// completion. Anything that must run once per worker or per mapped batch
// (scratch arenas, a recover) belongs here and nowhere else.
func (s *Session) worker(w int) {
	defer s.wg.Done()
	s.labels.ApplyMap(w)
	for {
		j, stolen, ok := s.cq.pop(w)
		if !ok {
			return
		}
		s.qDepth.Add(w, -1)
		s.claims.Inc(w)
		if stolen {
			s.stolen.Add(1)
			s.steals.Inc(w)
		}
		// The queue-wait span and the serve_queue_wait_seconds histogram see
		// the same duration value, so sampled traces and the metric agree
		// exactly on where queueing time went.
		qw := time.Since(j.enq)
		s.hQueueWait.Observe(w, qw)
		j.tr.AddSpan(obs.SpanQueueWait, w, j.enq, qw)
		if j.stop.Load() {
			s.canceled.Inc(w)
			s.canceledReads.Add(w, int64(len(j.recs)))
			j.tr.AddSpan(obs.SpanCancel, w, j.enq.Add(qw), 0)
		} else {
			t0 := time.Now()
			cs, n := s.m.MapBatchUntil(w, j.recs, j.base, j.out, j.stop, jobSubBatch(j))
			// Sub-batch boundary: tick the shared-cache epoch clock (no-op
			// when the mapper has no epoch cache).
			if s.ep != nil {
				s.ep.TryPublishEpoch(w)
			}
			s.processed[w] += int64(n)
			s.pipeReads.Add(w, int64(n))
			s.pipeBatches.Inc(w)
			j.mapDur = time.Since(t0)
			s.rec.Record(w, trace.RegionMapBatch, t0, j.mapDur)
			s.hMap.Observe(w, j.mapDur)
			partial := n < len(j.recs)
			j.tr.AddMapSpan(w, t0, j.mapDur, jobSubBatch(j), partial)
			if partial {
				s.canceled.Inc(w)
				s.canceledReads.Add(w, int64(len(j.recs)-n))
			}
			s.mu.Lock()
			s.cache.Add(cs)
			s.mu.Unlock()
		}
		if j.req.remaining.Add(-1) == 0 {
			close(j.req.done)
		}
	}
}

// jobSubBatch returns the job's kernel-attribution slot, nil for untraced
// requests so the mapper keeps its nil fast path.
func jobSubBatch(j *sjob) *obs.SubBatch {
	if j.tr == nil {
		return nil
	}
	return &j.sb
}

// Close drains the session: new Submits fail with ErrSessionClosed,
// already-admitted requests run to completion, and Close returns when the
// last worker has exited. Idempotent.
func (s *Session) Close() {
	s.closed.Store(true)
	s.cq.close()
	s.wg.Wait()
}

// CacheStats returns the aggregated per-batch CachedGBWT statistics across
// every request mapped so far.
func (s *Session) CacheStats() gbwt.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}
