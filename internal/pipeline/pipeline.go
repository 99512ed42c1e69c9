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

// batchReader is what Run looks for on its Source, the way io.Copy looks for
// WriterTo: a source that can fill a whole batch in memory the batch owns
// (giraffe.ExtractSource, *seeds.Reader) is asked to, with a recycled batch,
// in place of n Next calls and n copies. ReadBatch resets b, fills it with
// up to n records and returns io.EOF — possibly with a final short batch — at
// end of stream.
type batchReader interface {
	ReadBatch(b *seeds.Batch, n int) error
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
// in workload order. rec is valid until Emit returns — Run refills the batch
// it lives in — so an emitter that keeps a record copies it, strings and
// slices included; exts are the emitter's to keep.
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

	// The run's memory is Depth+2 slots, made once and recycled: Depth batches
	// may sit between ingest and emit, ingest fills one more while it waits
	// for room and emit holds the one it is writing out, so ingest always
	// finds a free slot and a warm run allocates per batch (a completion
	// channel, and whatever the source's batch does) and nothing per read.
	free := make(chan *slot, opts.Depth+2)
	for i := 0; i < cap(free); i++ {
		free <- new(slot)
	}
	// The FIFO of submitted slots is the in-flight window: ingest blocks on
	// it once Depth batches are submitted and not yet emitted, which is what
	// bounds memory, and its order is the emit order.
	fifo := make(chan *slot, opts.Depth)
	br, _ := src.(batchReader)
	st := &Stats{}
	start := time.Now()

	go func() {
		defer close(fifo)
		labels.ApplyIngest()
		base := 0
		for !stop.Load() {
			sl := <-free
			t0 := time.Now()
			var err error
			if br != nil {
				err = br.ReadBatch(&sl.batch, opts.BatchSize)
			} else {
				err = readBatch(src, &sl.batch, opts.BatchSize)
			}
			recs := sl.batch.Recs
			if err == nil || err == io.EOF {
				// A record that names what the graph lacks fails the run
				// here, before a worker indexes with it.
				if cerr := m.CheckRecords(recs, base); cerr != nil {
					err = cerr
				}
			}
			sl.ingest = time.Since(t0)
			rec.Record(ingestShard, trace.RegionIngest, t0, sl.ingest)
			hIngest.Observe(ingestShard, sl.ingest)
			if err != nil && err != io.EOF {
				fail(fmt.Errorf("pipeline: ingest: %w", err))
				return
			}
			if len(recs) > 0 {
				s.cq.push(sl.submit(&stop, base))
				mInFlight.Add(ingestShard, 1)
				fifo <- sl
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
	for sl := range fifo {
		j := &sl.job
		<-j.req.done
		mInFlight.Add(emitShard, -1)
		if !stop.Load() {
			st.Batches++
			st.Reads += len(j.recs)
			st.MapLatency.Add(j.mapDur.Seconds())
			st.IngestLatency.Add(sl.ingest.Seconds())
			t0 := time.Now()
			err := emitBatch(emit, j)
			d := time.Since(t0)
			rec.Record(emitShard, trace.RegionEmit, t0, d)
			hEmit.Observe(emitShard, d)
			if err != nil {
				fail(fmt.Errorf("pipeline: emit: %w", err))
			} else {
				lat := time.Since(j.enq)
				st.BatchLatency.Add(lat.Seconds())
				hBatch.Observe(emitShard, lat)
			}
		}
		// The worker closed done as its last touch of the job and the
		// emitter has returned: the slot is ingest's to refill. A failed run
		// gives its slots back too, unemitted, so ingest never waits on one.
		free <- sl
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

// slot is one batch's worth of a run's memory: the records (and, for a
// source that fills batches itself, the slabs under them), the result
// window, and the job and completion state a Session worker is handed. Run
// makes Depth+2 of them and passes each around ingest → queue → worker →
// emit → ingest; exactly one stage holds a slot at a time.
type slot struct {
	batch  seeds.Batch
	out    [][]extend.Extension
	job    sjob
	req    srequest
	ingest time.Duration
}

// submit readies the slot's job over the batch ingest just filled and
// returns it for the queue. The completion channel is the one thing a batch
// allocates here: a closed channel cannot be reopened.
func (sl *slot) submit(stop *atomic.Bool, base int) *sjob {
	n := len(sl.batch.Recs)
	if cap(sl.out) < n {
		sl.out = make([][]extend.Extension, n)
	}
	sl.out = sl.out[:n]
	clear(sl.out) // the last batch's results are the emitter's, not the slot's to keep alive
	sl.req.done = make(chan struct{})
	sl.req.remaining.Store(1)
	sl.job = sjob{req: &sl.req, stop: stop, recs: sl.batch.Recs, out: sl.out, base: base, enq: time.Now()}
	return &sl.job
}

// readBatch is ReadBatch for a source that only has Next: it copies up to n
// records into b and returns io.EOF (possibly with a final short batch) at
// end of stream.
func readBatch(src Source, b *seeds.Batch, n int) error {
	b.Reset()
	for len(b.Recs) < n {
		r, err := src.Next()
		if err != nil {
			return err
		}
		b.Recs = append(b.Recs, *r)
	}
	return nil
}

func emitBatch(emit Emitter, b *sjob) error {
	for j := range b.recs {
		if err := emit.Emit(&b.recs[j], b.out[j]); err != nil {
			return err
		}
	}
	return nil
}
