// Package pipeline is one worker pool with two front ends. The pool is
// Session: long-lived workers claim queued jobs from a bounded claimQueue
// under the configured scheduling policy and map each through a shared
// core.Mapper (each job with a fresh CachedGBWT, as Giraffe rebuilds its cache
// per batch, so the §VII-B capacity parameter keeps its meaning). Session.worker
// is the only claim → map → account loop in the package, so a per-worker or
// per-batch hook (the epoch tick today; scratch arenas, a recover) goes there
// once and every caller gets it.
//
// The serving front end is Session.Submit: a request becomes a window of
// sub-batch jobs admitted all-or-nothing, its context cancels them, and the
// caller waits for the window to complete. The streaming front end is Run:
// a bounded ingest stage reads records incrementally and submits each batch
// as a one-job request, and an emit stage waits on those requests in ingest
// order and writes results as they complete. The stages overlap — ingest I/O
// hides behind mapping, mapping behind emit — and every hand-off is bounded,
// so memory is governed by the in-flight window (Depth × BatchSize records)
// instead of the workload size. Because emit walks a FIFO of submitted
// batches, the CSV output is ordered by construction and byte-identical to
// the batch proxy's. A failed stream sets one stop flag shared by all of its
// jobs — the same cancellation a request deadline uses.
package pipeline

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures a streaming run.
type Options struct {
	// Workers is the persistent map-worker count; ≤0 means GOMAXPROCS.
	Workers int
	// BatchSize is the records per in-flight batch; ≤0 means the scheduler
	// default (512, as in Giraffe).
	BatchSize int
	// Depth is the backpressure bound, in batches; ≤0 means 2×Workers. A
	// Session admits at most Depth queued sub-batches; Run keeps at most
	// Depth batches between ingest and emit (queued, mapping or mapped).
	Depth int
	// Scheduler selects how workers claim queued batches.
	Scheduler sched.Kind
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = sched.DefaultBatchSize
	}
	if o.Depth <= 0 {
		o.Depth = 2 * o.Workers
	}
	return o
}

// Source yields records incrementally; Next returns io.EOF after the last
// one. *seeds.Reader (and seeds.File) satisfy it directly, as does
// giraffe.ExtractSource, which extracts records from FASTQ on the fly
// instead of reading a capture file.
type Source interface {
	Next() (*seeds.ReadSeeds, error)
}

// SliceSource streams an in-memory workload.
type SliceSource struct {
	recs []seeds.ReadSeeds
	i    int
}

// NewSliceSource wraps already-loaded records.
func NewSliceSource(recs []seeds.ReadSeeds) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (*seeds.ReadSeeds, error) {
	if s.i >= len(s.recs) {
		return nil, io.EOF
	}
	r := &s.recs[s.i]
	s.i++
	return r, nil
}

// Emitter consumes mapped records. Emit is called from a single goroutine,
// in workload order.
type Emitter interface {
	Emit(rec *seeds.ReadSeeds, exts []extend.Extension) error
}

// CSVEmitter writes the proxy's CSV format, byte-identical to
// core.WriteCSV over the same workload.
type CSVEmitter struct {
	bw *bufio.Writer
	// row is the one buffer every record's rows are rendered into.
	row []byte
}

// NewCSVEmitter writes the header and returns the emitter. Call Flush when
// the run completes.
func NewCSVEmitter(w io.Writer) (*CSVEmitter, error) {
	bw := bufio.NewWriter(w)
	if err := core.WriteCSVHeader(bw); err != nil {
		return nil, err
	}
	return &CSVEmitter{bw: bw}, nil
}

// Emit implements Emitter.
func (e *CSVEmitter) Emit(rec *seeds.ReadSeeds, exts []extend.Extension) error {
	e.row = core.AppendCSVRecord(e.row[:0], rec, exts)
	_, err := e.bw.Write(e.row)
	return err
}

// Flush drains the buffered output.
func (e *CSVEmitter) Flush() error { return e.bw.Flush() }

// Stats reports a completed streaming run.
type Stats struct {
	// Reads and Batches count what flowed through the pipeline.
	Reads   int
	Batches int
	// Sched reports per-worker records processed and steals, as the batch
	// scheduler does.
	Sched sched.Stats
	// Cache aggregates every batch's CachedGBWT statistics.
	Cache gbwt.CacheStats
	// BatchLatency summarises per-batch ingest→emit latency in seconds.
	BatchLatency stats.Online
	// MapLatency summarises per-batch time in the map stage in seconds.
	MapLatency stats.Online
	// IngestLatency summarises per-batch time in the ingest stage in
	// seconds: what the source spent producing the batch's records. For a
	// captured-seed file that is decode I/O; for a streaming extraction
	// source (giraffe.ExtractSource) it includes minimizer lookup and seed
	// creation, which is what lets cmd/benchreport compare
	// streamed-from-FASTQ against captured-file ingest cost directly.
	IngestLatency stats.Online
	// Makespan is the end-to-end wall time of the streaming run.
	Makespan time.Duration
}

// Throughput returns reads per second over the makespan; zero (not NaN or
// Inf) when the makespan is zero, so JSON consumers never see a non-finite
// rate.
func (s *Stats) Throughput() float64 {
	return obs.Rate(float64(s.Reads), s.Makespan)
}

// Run streams records from src through m's mapping kernels into emit, as a
// front end of a Session it owns for the length of the run. Ingest (its own
// goroutine) reads a batch and submits it as a one-job request, blocking
// while the in-flight window is full; the Session's workers map it under the
// per-batch CachedGBWT discipline; emit (the caller's goroutine) waits on the
// submitted requests in ingest order, so results are emitted in input order
// by construction.
//
// Trace spans (when the mapper was built with a trace recorder) tag map
// workers 0..Workers-1, the ingest stage as worker Workers, and the emit
// stage as worker Workers+1; the recorder is grown as needed.
func Run(m *core.Mapper, src Source, emit Emitter, opts Options) (*Stats, error) {
	if m == nil {
		return nil, errors.New("pipeline: nil mapper")
	}
	if src == nil {
		return nil, errors.New("pipeline: nil source")
	}
	if emit == nil {
		return nil, errors.New("pipeline: nil emitter")
	}
	opts = opts.normalize()
	if opts.Workers != 1 {
		// Hardware-counter probes are single-threaded instruments.
		m = m.WithoutProbe()
	}
	rec := m.Options().Trace
	rec.Grow(opts.Workers + 2)
	// Observability handles. A nil registry yields nil handles whose methods
	// are no-ops, so the stage code below records unconditionally. The stage
	// timing itself is free: the pipeline already measures per-batch
	// ingest/map durations for Stats regardless of observability.
	// Single-writer stages use the same shard indices as their trace rows:
	// ingest = Workers, emit = Workers+1 (the registry clamps out-of-range
	// shards to 0, which stays correct — just shared — if it was sized
	// smaller). Everything a map worker records (claims, steals, reads,
	// batches, the map-stage histogram) is the Session's to write, not Run's.
	reg := m.Options().Obs
	ingestShard, emitShard := opts.Workers, opts.Workers+1
	mInFlight := reg.Gauge(obs.MetricPipelineInFlight)
	hIngest := reg.Histogram(obs.MetricStageIngest)
	hEmit := reg.Histogram(obs.MetricStageEmit)
	hBatch := reg.Histogram(obs.MetricBatchLatency)
	// pprof label contexts, prebuilt once per run: stage goroutines label
	// themselves at batch boundaries (never per record) so a -profile
	// capture decomposes by stage and worker at zero cost to the hot path.
	labels := obs.NewProfLabels(obs.ClassBatch, opts.Workers)
	s := startSession(m, opts, reg, nil, labels)

	// stop is the run's one failure flag, shared by every job: once set,
	// queued batches are skipped, the batch on a worker stops at the next
	// record, ingest winds down and emit drains without emitting. Whoever
	// flips it owns firstErr; emit reads it only after ingest has exited.
	var stop atomic.Bool
	var firstErr error
	fail := func(err error) {
		if stop.CompareAndSwap(false, true) {
			firstErr = err
		}
	}

	// inflight is one submitted batch on its way to emit.
	type inflight struct {
		job    *sjob
		ingest time.Duration
	}
	// The FIFO of handles is the in-flight window: ingest blocks on it once
	// Depth batches are submitted and not yet emitted, which is what bounds
	// memory, and its order is the emit order.
	fifo := make(chan inflight, opts.Depth)
	st := &Stats{}
	start := time.Now()

	go func() {
		defer close(fifo)
		labels.ApplyIngest()
		base := 0
		for !stop.Load() {
			t0 := time.Now()
			recs, err := readBatch(src, opts.BatchSize)
			if err == nil || err == io.EOF {
				// A record that names what the graph lacks fails the run
				// here, before a worker indexes with it.
				if cerr := m.CheckRecords(recs, base); cerr != nil {
					err = cerr
				}
			}
			d := time.Since(t0)
			rec.Record(ingestShard, trace.RegionIngest, t0, d)
			hIngest.Observe(ingestShard, d)
			if err != nil && err != io.EOF {
				fail(fmt.Errorf("pipeline: ingest: %w", err))
				return
			}
			if len(recs) > 0 {
				req := &srequest{done: make(chan struct{})}
				req.remaining.Store(1)
				j := &sjob{
					req: req, stop: &stop, recs: recs, out: make([][]extend.Extension, len(recs)),
					base: base, enq: time.Now(),
				}
				s.cq.push(j)
				mInFlight.Add(ingestShard, 1)
				fifo <- inflight{job: j, ingest: d}
				base += len(recs)
			}
			if err == io.EOF {
				return
			}
		}
	}()

	// Emit runs on the caller's goroutine, so its label is cleared on the way
	// out rather than left to leak into whatever the caller does next.
	labels.ApplyEmit()
	defer labels.Clear()
	for h := range fifo {
		j := h.job
		<-j.req.done
		mInFlight.Add(emitShard, -1)
		if stop.Load() {
			continue // failed run: drain without emitting
		}
		st.Batches++
		st.Reads += len(j.recs)
		st.MapLatency.Add(j.mapDur.Seconds())
		st.IngestLatency.Add(h.ingest.Seconds())
		t0 := time.Now()
		err := emitBatch(emit, j)
		d := time.Since(t0)
		rec.Record(emitShard, trace.RegionEmit, t0, d)
		hEmit.Observe(emitShard, d)
		if err != nil {
			fail(fmt.Errorf("pipeline: emit: %w", err))
			continue
		}
		lat := time.Since(j.enq)
		st.BatchLatency.Add(lat.Seconds())
		hBatch.Observe(emitShard, lat)
	}
	s.Close()
	st.Makespan = time.Since(start)
	if stop.Load() {
		return nil, firstErr
	}
	st.Sched = sched.Stats{Processed: s.processed, Steals: s.stolen.Load()}
	st.Cache = s.CacheStats()
	return st, nil
}

// RunToCSV streams src through m and writes the CSV output — byte-identical
// to batch-mode core.WriteCSV over the same workload — to w.
func RunToCSV(m *core.Mapper, src Source, w io.Writer, opts Options) (*Stats, error) {
	e, err := NewCSVEmitter(w)
	if err != nil {
		return nil, err
	}
	st, err := Run(m, src, e, opts)
	if err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return st, nil
}

// readBatch pulls up to n records; it returns io.EOF (possibly with a final
// short batch) at end of stream.
func readBatch(src Source, n int) ([]seeds.ReadSeeds, error) {
	out := make([]seeds.ReadSeeds, 0, n)
	for len(out) < n {
		r, err := src.Next()
		if err != nil {
			return out, err
		}
		out = append(out, *r)
	}
	return out, nil
}

func emitBatch(emit Emitter, b *sjob) error {
	for j := range b.recs {
		if err := emit.Emit(&b.recs[j], b.out[j]); err != nil {
			return err
		}
	}
	return nil
}
