package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/snarl"
	"repro/internal/trace"
)

// mapperMetrics caches the obs handles the mapping kernels record into.
// All handles are nil when observability is off; the handle methods are
// nil-safe no-ops, so the kernels carry no configuration branches beyond
// the single instr check that gates the time.Now calls.
type mapperMetrics struct {
	cluster    *obs.Histogram
	threshold  *obs.Histogram
	cacheBuild *obs.Histogram

	// Epoch-cache instrumentation: the off-path publication cost and the
	// read-side hit split (shared snapshot vs private overflow vs decode).
	cacheBuildShared *obs.Histogram
	epochPublishes   *obs.Counter
	epochResident    *obs.Gauge
	epochShared      *obs.Counter
	epochPrivate     *obs.Counter
	epochDecode      *obs.Counter
}

func newMapperMetrics(reg *obs.Registry) mapperMetrics {
	return mapperMetrics{
		cluster:          reg.Histogram(obs.MetricClusterLatency),
		threshold:        reg.Histogram(obs.MetricThresholdLatency),
		cacheBuild:       reg.Histogram(obs.MetricCacheBuild),
		cacheBuildShared: reg.Histogram(obs.MetricCacheBuildShared),
		epochPublishes:   reg.Counter(obs.MetricEpochPublishes),
		epochResident:    reg.Gauge(obs.MetricEpochResident),
		epochShared:      reg.Counter(obs.MetricEpochSharedHits),
		epochPrivate:     reg.Counter(obs.MetricEpochPrivateHits),
		epochDecode:      reg.Counter(obs.MetricEpochDecodeMisses),
	}
}

// Mapper is the reusable mapping engine: the prepared query structures
// (distance index plus the bidirectional haplotype index, the expensive part
// of a run's setup) built once and shared by every caller — the batch Run,
// the parent emulator (package giraffe), and the streaming pipeline all map
// records through the same Mapper, which is what keeps their outputs
// identical by construction.
type Mapper struct {
	file *gbz.File
	dist *snarl.Tree
	bi   *gbwt.Bidirectional
	opts Options
	met  mapperMetrics
	slow *obs.SlowReads
	// instr gates the kernel timing calls: true when the trace recorder,
	// the obs registry, or the slow-read reservoir wants per-region
	// durations.
	instr bool

	// shared is the epoch-published shared cache (nil unless
	// Options.EpochCapacity > 0). It is safe for concurrent use: workers
	// read pinned immutable snapshots; publication happens at batch
	// boundaries via TryPublishEpoch.
	shared *gbwt.SharedBiCache
	// pendingShared[row] holds the duration of an epoch publication won by
	// that worker at a batch boundary, picked up (and zeroed) by its next
	// MapBatchUntil so exemplars can attribute the build to the reads that
	// ran behind it.
	pendingShared []atomic.Int64

	// states pools the kernels' working memory. A state is taken for the
	// length of one MapBatchUntil or MapRecord call and put back after, so
	// two concurrent calls never share one — whatever worker indices they
	// pass: pipeline workers may outnumber Options.Threads (sharedRow clamps
	// them onto one row), which is why this is not an array indexed by
	// worker. A pointer, so the WithoutProbe copy shares the pool.
	states *sync.Pool
}

// mapState is the per-call working memory of the two kernels: the clusters
// of a read live in cl until the next read, and env carries the extension
// kernel's buffers. Extensions are copied out to the caller (see extend.Env),
// so nothing a call returns points into a pooled state.
//
// own is the reader pair MapBatchUntil maps through: built by the state's
// first batch, rewound by every later one, so its tables and record slab are
// allocated once per state and not once per batch. A *DecodedRecord it hands
// out is therefore valid only until the state's next batch; the kernels hold
// one no longer than a read.
type mapState struct {
	cl  cluster.Scratch
	env extend.Env
	own gbwt.BiReader
}

// acquire takes a state from the pool and points its environment at the
// call's reader; release drops that reader (a pooled state must not keep a
// caller's record cache alive; its own it keeps) and puts the state back.
func (m *Mapper) acquire(reader gbwt.BiReader) *mapState {
	st := m.states.Get().(*mapState)
	st.env.Graph, st.env.Bi, st.env.Probe = m.file.Graph, reader, m.opts.Probe
	return st
}

// acquireOwn is acquire on the state's own reader pair, made what
// NewReader(worker) would build: the same empty tables at the configured
// capacity, the same pinned snapshots, so a batch's probes, rehashes and
// CacheStats do not tell the two apart.
//
//minigiraffe:hot
func (m *Mapper) acquireOwn(worker int) *mapState {
	st := m.acquire(gbwt.BiReader{})
	if st.own.Fwd == nil {
		st.own = m.NewReader(worker)
	} else {
		st.own.Fwd.Reset(worker)
		st.own.Rev.Reset(worker)
	}
	st.env.Bi = st.own
	return st
}

func (m *Mapper) release(st *mapState) {
	st.env.Bi = gbwt.BiReader{}
	m.states.Put(st)
}

// NewMapper prepares the indexes from a GBZ file: the graph distance index
// (the snarl tree; a graph that does not decompose is an error wrapping
// snarl.ErrNotDecomposable) and the reverse orientation of the embedded
// haplotype index, so both extension directions are haplotype-constrained.
func NewMapper(f *gbz.File, opts Options) (*Mapper, error) {
	if f == nil || f.Graph == nil || f.Index == nil {
		return nil, errors.New("core: nil GBZ file")
	}
	if f.Graph.NumPaths() == 0 {
		return nil, errors.New("core: GBZ has no embedded haplotype paths")
	}
	paths := make([][]gbwt.NodeID, f.Graph.NumPaths())
	for i := range paths {
		paths[i] = f.Graph.Path(i)
	}
	bi, err := gbwt.FromForward(f.Index, paths)
	if err != nil {
		return nil, err
	}
	dist, err := snarl.Decompose(f.Graph)
	if err != nil {
		return nil, fmt.Errorf("core: building distance index: %w", err)
	}
	return NewMapperFromIndexes(f, dist, bi, opts)
}

// NewMapperFromIndexes wraps indexes that were already built elsewhere
// (e.g. giraffe.BuildIndexes) so the parent emulator and the proxy share one
// mapping engine without rebuilding anything.
func NewMapperFromIndexes(f *gbz.File, dist *snarl.Tree, bi *gbwt.Bidirectional, opts Options) (*Mapper, error) {
	if f == nil || f.Graph == nil {
		return nil, errors.New("core: nil GBZ file")
	}
	if dist == nil || bi == nil {
		return nil, errors.New("core: nil index")
	}
	opts = opts.normalize()
	m := &Mapper{
		file:   f,
		dist:   dist,
		bi:     bi,
		opts:   opts,
		met:    newMapperMetrics(opts.Obs),
		slow:   opts.Slow,
		instr:  opts.Trace != nil || opts.Obs != nil || opts.Slow != nil,
		states: &sync.Pool{New: func() any { return new(mapState) }},
	}
	if opts.EpochCapacity > 0 {
		// Row count sizes the snapshot's per-worker hit-counter rows and
		// the publication-attribution slots; out-of-range worker indices
		// clamp, so a pipeline with more workers than Threads stays
		// correct (it only shares the last row).
		rows := opts.Threads
		if rows <= 0 {
			rows = defaultThreads()
		}
		m.shared = gbwt.NewSharedBi(bi, gbwt.EpochConfig{
			Capacity: opts.EpochCapacity,
			Workers:  rows,
		})
		m.pendingShared = make([]atomic.Int64, rows)
	}
	return m, nil
}

// EpochEnabled reports whether the mapper runs the epoch-published shared
// cache discipline.
func (m *Mapper) EpochEnabled() bool { return m.shared != nil }

// sharedRow clamps a worker index onto the shared cache's row range.
func (m *Mapper) sharedRow(worker int) int {
	if worker < 0 {
		return 0
	}
	if worker >= len(m.pendingShared) {
		return len(m.pendingShared) - 1
	}
	return worker
}

// TryPublishEpoch is the batch-boundary hook of the epoch discipline:
// callers (the pipeline.Session worker loop, which serves both streaming
// and serving runs, and the batch scheduler's callback) invoke it after
// finishing a batch, off the record-mapping hot path. It ticks the epoch clock, and — when this call wins the
// CAS-elected publication — rebuilds both directions' snapshots from the
// accumulated access-frequency feedback, records the build cost, and
// leaves the duration for this worker's next batch to attribute in its
// exemplars. Returns whether this call published. No-op (false) when the
// epoch cache is off.
func (m *Mapper) TryPublishEpoch(worker int) bool {
	if m.shared == nil {
		return false
	}
	d, ok := m.shared.MaybePublish()
	if !ok {
		return false
	}
	row := m.sharedRow(worker)
	m.pendingShared[row].Store(int64(d))
	m.met.cacheBuildShared.Observe(row, d)
	m.met.epochPublishes.Inc(row)
	m.met.epochResident.Set(row, int64(m.shared.Resident()))
	return true
}

// Options returns the mapper's normalized run options.
func (m *Mapper) Options() Options { return m.opts }

// WithoutProbe returns a mapper that maps without the hardware-counter
// probe. Probes are single-threaded instruments; concurrent consumers (the
// streaming pipeline, multi-threaded Run) must drop them.
func (m *Mapper) WithoutProbe() *Mapper {
	if m.opts.Probe == nil {
		return m
	}
	c := *m
	c.opts.Probe = nil
	return &c
}

// NewReader builds worker's per-batch reader pair. Under the default
// discipline that is a fresh CachedGBWT pair at the configured initial
// capacity — Giraffe's per-batch cache lifetime, the mechanism behind the
// paper's most significant tuning parameter (§VII-B). Under the epoch
// discipline the pair also pins the current shared snapshots, which it looks
// in before its private tables.
func (m *Mapper) NewReader(worker int) gbwt.BiReader {
	if m.shared != nil {
		return m.shared.NewBiReader(m.sharedRow(worker), m.opts.CacheCapacity)
	}
	return m.bi.NewBiReader(m.opts.CacheCapacity)
}

// batchAttr is what a batch hands each of its records for attribution: the
// per-batch CachedGBWT rebuild the record ran behind, an epoch publication
// the worker performed at the preceding batch boundary, and — on the serving
// path — the request's sub-batch slot, which the record's kernel nanos
// accumulate into (plain adds: the sub-batch is this worker's until the batch
// returns) and whose trace ID tags the exemplar. The zero value attributes
// nothing; it lives on MapBatchUntil's stack and is passed by value.
type batchAttr struct {
	cacheNanos, sharedNanos int64
	sb                      *obs.SubBatch
}

// MapRecord runs the two critical functions (cluster_seeds and
// process_until_threshold_c) for one record. index is the record's global
// position in the workload; worker tags trace spans. The reader carries the
// batch's cache state and must not be shared across goroutines. The
// extensions returned are the caller's: the kernels' working memory is
// pooled, taken for this call only, and nothing returned points into it.
//
//minigiraffe:hot
func (m *Mapper) MapRecord(worker int, reader gbwt.BiReader, rec *seeds.ReadSeeds, index int) []extend.Extension {
	st := m.acquire(reader)
	exts := m.mapRecordSlow(worker, st, rec, index, batchAttr{})
	m.release(st)
	return exts
}

// mapRecordSlow is MapRecord on a state the caller acquired (once per batch,
// so the extension environment is built once per batch too) plus the
// slow-read exemplar capture. The capture is allocation-free (Exemplar is a
// value; the reservoir preallocates) and skipped entirely when no reservoir
// is configured.
//
//minigiraffe:hot
func (m *Mapper) mapRecordSlow(worker int, st *mapState, rec *seeds.ReadSeeds, index int, at batchAttr) []extend.Extension {
	var t0 time.Time
	var dc, dt time.Duration
	if m.instr {
		t0 = time.Now()
	}
	cls := st.cl.ClusterSeeds(m.dist, rec.Seeds, m.opts.Cluster, m.opts.Probe, index)
	if m.instr {
		dc = time.Since(t0)
		m.opts.Trace.Record(worker, trace.RegionCluster, t0, dc)
		m.met.cluster.Observe(worker, dc)
		t0 = time.Now()
	}
	exts := extend.ProcessUntilThresholdC(&st.env, &rec.Read, rec.Seeds, cls, m.opts.Extend, index)
	if m.instr {
		dt = time.Since(t0)
		m.opts.Trace.Record(worker, trace.RegionThresholdC, t0, dt)
		m.met.threshold.Observe(worker, dt)
		if at.sb != nil {
			at.sb.ClusterNanos += int64(dc)
			at.sb.ExtendNanos += int64(dt)
		}
		if m.slow != nil {
			ex := obs.Exemplar{
				Read:             rec.Read.Name,
				Index:            index,
				Worker:           worker,
				Seeds:            len(rec.Seeds),
				ClusterNanos:     int64(dc),
				ExtendNanos:      int64(dt),
				TotalNanos:       int64(dc + dt),
				CacheBuildNanos:  at.cacheNanos,
				SharedBuildNanos: at.sharedNanos,
			}
			if at.sb != nil {
				ex.Trace = at.sb.Trace
			}
			m.slow.Offer(worker, ex)
		}
	}
	return exts
}

// MapBatch maps recs (whose global indices start at base) through a per-batch
// CachedGBWT — empty at the configured capacity, as Giraffe rebuilds it, on
// memory the pooled state keeps — storing record j's extensions in out[j],
// and returns the batch's drained cache statistics. len(out) must be
// len(recs).
//
//minigiraffe:hot
func (m *Mapper) MapBatch(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension) gbwt.CacheStats {
	cs, _ := m.MapBatchUntil(worker, recs, base, out, nil, nil)
	return cs
}

// MapBatchUntil is MapBatch with a cooperative cancellation point between
// records: when stop becomes true mid-batch, the remaining records are left
// unmapped and mapped reports how many completed. This is the mechanism
// behind pipeline.Session's cancellation — a request deadline on the serving
// path, a failed run's shared flag on the streaming path: a stop that fires
// while a batch is on a worker halts the mapper at the next record boundary
// instead of running the batch to completion. A nil stop never cancels, so
// MapBatch callers pay only a nil check per record. sb, when non-nil, receives the batch's request attribution: the
// cache-build and per-record kernel nanos accumulate into it and its trace
// ID tags every slow-read exemplar the batch produces (the serving path's
// map_subbatch span decomposition).
//
//minigiraffe:hot
func (m *Mapper) MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (cs gbwt.CacheStats, mapped int) {
	var t0 time.Time
	if m.instr {
		t0 = time.Now()
	}
	st := m.acquireOwn(worker)
	at := batchAttr{sb: sb}
	if m.shared != nil {
		at.sharedNanos = m.pendingShared[m.sharedRow(worker)].Swap(0)
	}
	if m.instr {
		// The per-batch CachedGBWT rebuild is Giraffe's cache lifetime —
		// the cost the §VII-B capacity parameter trades against hit rate.
		// Under the epoch discipline this times only the private overflow
		// construction; the shared build is attributed by TryPublishEpoch.
		// A worker's first batch builds the pair, every later one rewinds
		// it: the region is the same, its cost is a reset's.
		d := time.Since(t0)
		m.opts.Trace.Record(worker, trace.RegionCacheBuild, t0, d)
		m.met.cacheBuild.Observe(worker, d)
		at.cacheNanos = int64(d)
		if sb != nil {
			sb.CacheBuildNanos += int64(d)
		}
	}
	for j := range recs {
		if stop != nil && stop.Load() {
			break
		}
		out[j] = m.mapRecordSlow(worker, st, &recs[j], base+j, at)
		mapped++
	}
	cs = ReaderCacheStats(st.own)
	m.release(st)
	if m.shared != nil {
		m.met.epochShared.Add(worker, cs.SharedHits)
		m.met.epochPrivate.Add(worker, cs.Hits)
		m.met.epochDecode.Add(worker, cs.Misses)
	}
	return cs, mapped
}

// ReaderCacheStats sums the cache counters of both directions of a BiReader,
// whichever cache levels it was built with — and since CacheStats.Add is
// commutative, the per-worker aggregation is order-independent.
func ReaderCacheStats(r gbwt.BiReader) gbwt.CacheStats {
	s := r.Fwd.Stats()
	s.Add(r.Rev.Stats())
	return s
}

// CheckRecords holds file-borne records against the mapper's graph
// (seeds.ReadSeeds.Check) before a kernel indexes with them; base is the
// first record's position in its stream, for the error.
func (m *Mapper) CheckRecords(records []seeds.ReadSeeds, base int) error {
	for i := range records {
		if err := records[i].Check(m.file.Graph); err != nil {
			return fmt.Errorf("record %d: %w", base+i, err)
		}
	}
	return nil
}

// Run executes the batch proxy over records on the prepared mapper: the
// whole workload is scheduled at once under the configured policy, with each
// batch getting a fresh CachedGBWT, after CheckRecords and off its clock.
func (m *Mapper) Run(records []seeds.ReadSeeds) (*Result, error) {
	if err := m.CheckRecords(records, 0); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts := m.opts
	// Worker count resolution mirrors sched.Run's normalisation so the
	// per-worker stats slices are sized correctly.
	threads := opts.Threads
	if threads <= 0 {
		threads = defaultThreads()
	}
	if threads > len(records) && len(records) > 0 {
		threads = len(records)
	}
	if threads < 1 {
		threads = 1
	}
	run := m
	if threads != 1 {
		run = m.WithoutProbe()
	}
	// Workers index the recorder's buffers; a caller may have sized it
	// before the thread count was resolved.
	opts.Trace.Grow(threads)
	res := &Result{Extensions: make([][]extend.Extension, len(records))}
	cacheStats := make([]gbwt.CacheStats, threads)

	// pprof labels at batch granularity: the claim callback re-labels its
	// goroutine per claimed batch (scheduler workers are reused across
	// batches), never per record, so -profile captures split by worker with
	// the map hot path untouched.
	labels := obs.NewProfLabels(obs.ClassBatch, threads)
	start := time.Now()
	stats, err := sched.RunBatches(sched.Config{
		Kind:      opts.Scheduler,
		Threads:   threads,
		BatchSize: opts.BatchSize,
		Obs:       opts.Obs,
	}, len(records), func(worker, lo, hi int) {
		labels.ApplyMap(worker)
		cacheStats[worker].Add(run.MapBatch(worker, records[lo:hi], lo, res.Extensions[lo:hi]))
		// Batch boundary: tick the epoch clock (publishes the next shared
		// snapshot every interval; no-op without the epoch cache).
		run.TryPublishEpoch(worker)
	})
	if err != nil {
		return nil, err
	}
	res.Makespan = time.Since(start)
	res.Sched = stats
	for _, s := range cacheStats {
		res.Cache.Add(s)
	}
	return res, nil
}
