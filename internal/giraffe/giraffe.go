// Package giraffe emulates the parent application of the miniGiraffe study:
// the vg Giraffe short-read pangenome mapper (Sirén et al., Science 2021).
// It implements the full mapping pipeline of §IV-B — per-read preprocessing
// (minimizer lookup and seed creation), the two critical functions
// (cluster_seeds and process_until_threshold_c, shared with the proxy via
// package extend), and the post-processing/alignment phase the proxy omits —
// under a VG-style task scheduler in which the main thread buffers batches
// of reads, dispatches them to workers, tracks how many are busy, and
// processes queued batches itself when no worker is available (§IV-A).
//
// The proxy (package core) runs exactly the same critical-function code on
// captured inputs, which is how the reproduction achieves the paper's
// 100% output match (§VI-a).
package giraffe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/minimizer"
	"repro/internal/seeds"
	"repro/internal/snarl"
	"repro/internal/trace"
)

// Options configures a mapping run.
type Options struct {
	// Threads is the worker count (including the main thread); ≤0 means 1.
	Threads int
	// BatchSize is the scheduler batch size; ≤0 means 512 (Giraffe's
	// default).
	BatchSize int
	// CacheCapacity is each worker's initial CachedGBWT capacity, handed to
	// core.Options as it arrives (0 = the Giraffe default of 256, negative =
	// caching off: core.Options owns that convention). Under the epoch
	// discipline (EpochCapacity > 0) it sizes the private overflow layer.
	CacheCapacity int
	// EpochCapacity, when > 0, enables the epoch-published shared cache
	// (see core.Options.EpochCapacity); 0 keeps per-batch rebuilds.
	EpochCapacity int
	// Trace records per-region spans when non-nil.
	Trace *trace.Recorder
	// Probe drives the hardware-counter model; only honoured when
	// Threads == 1 (counter collection is single-threaded, as in §VI-b).
	Probe counters.Probe
	// Extend and Cluster tune the critical functions.
	Extend  extend.Params
	Cluster cluster.Params
	// CaptureSeeds stores each read's preprocessed seeds in the result —
	// the capture step that produces the proxy's input.
	CaptureSeeds bool
}

func (o Options) normalize() Options {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 512
	}
	if o.Threads != 1 {
		o.Probe = nil
	}
	return o
}

// Alignment is the post-processed mapping result for one read.
type Alignment struct {
	ReadName string
	// Mapped reports whether any extension cleared the score floor.
	Mapped bool
	// Best is the highest-scoring extension (zero value when unmapped).
	Best extend.Extension
	// MappingQuality is a Phred-like confidence from the score gap to the
	// runner-up, clamped to [0, 60].
	MappingQuality int
	// Secondary counts retained non-primary extensions.
	Secondary int
	// RefinedScore is the alignment-phase score: the extension score plus
	// any gapped tail alignments (equal to Best.Score for full-coverage
	// extensions, 0 when unmapped).
	RefinedScore int32
}

// Result is a completed mapping run.
type Result struct {
	Alignments []Alignment
	// Extensions holds every read's raw kernel output (the data validated
	// against the proxy).
	Extensions [][]extend.Extension
	// Captured holds the preprocessed seeds when Options.CaptureSeeds.
	Captured []seeds.ReadSeeds
	// Makespan is the wall-clock mapping time (excluding index building).
	Makespan time.Duration
}

// Indexes bundles the query structures built from a GBZ file.
type Indexes struct {
	File  *gbz.File
	MinIx *minimizer.Index
	Dist  *snarl.Tree
	// Bi is the bidirectional haplotype index used by the extension kernel.
	Bi *gbwt.Bidirectional
}

// BuildIndexes reconstructs the minimizer and distance indexes from the
// paths embedded in a GBZ file — what Giraffe loads from its .min and .dist
// companion files.
func BuildIndexes(f *gbz.File) (*Indexes, error) {
	if f == nil || f.Graph == nil || f.Index == nil {
		return nil, errors.New("giraffe: nil GBZ file")
	}
	if f.Graph.NumPaths() == 0 {
		return nil, errors.New("giraffe: GBZ has no embedded haplotype paths")
	}
	paths := make([][]gbwt.NodeID, f.Graph.NumPaths())
	for i := range paths {
		paths[i] = f.Graph.Path(i)
	}
	// The three builds only read the graph and the paths, so they run side
	// by side. The minimizer build's error, which names a bad path and node,
	// is reported ahead of the GBWT build's, and that ahead of the snarl
	// decomposition's (snarl.ErrNotDecomposable: no distance index).
	var (
		wg      sync.WaitGroup
		bi      *gbwt.Bidirectional
		biErr   error
		dist    *snarl.Tree
		distErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		bi, biErr = gbwt.FromForward(f.Index, paths)
	}()
	go func() {
		defer wg.Done()
		dist, distErr = snarl.Decompose(f.Graph)
	}()
	minIx, err := minimizer.Build(f.Graph, paths, minimizer.DefaultConfig())
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("giraffe: building minimizer index: %w", err)
	}
	if biErr != nil {
		return nil, fmt.Errorf("giraffe: building bidirectional index: %w", biErr)
	}
	if distErr != nil {
		return nil, fmt.Errorf("giraffe: building distance index: %w", distErr)
	}
	return &Indexes{File: f, MinIx: minIx, Dist: dist, Bi: bi}, nil
}

// Map runs the full Giraffe-like pipeline over the reads. The two critical
// functions are executed through the shared core.Mapper, the same engine the
// proxy and its streaming pipeline use — which is what makes the §VI-a
// 100% output match hold by construction.
func Map(ix *Indexes, reads []dna.Read, opts Options) (*Result, error) {
	if ix == nil {
		return nil, errors.New("giraffe: nil indexes")
	}
	opts = opts.normalize()
	mapper, err := core.NewMapperFromIndexes(ix.File, ix.Dist, ix.Bi, core.Options{
		Threads:       opts.Threads,
		CacheCapacity: opts.CacheCapacity,
		EpochCapacity: opts.EpochCapacity,
		Trace:         opts.Trace,
		Probe:         opts.Probe,
		Extend:        opts.Extend,
		Cluster:       opts.Cluster,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Alignments: make([]Alignment, len(reads)),
		Extensions: make([][]extend.Extension, len(reads)),
	}
	if opts.CaptureSeeds {
		res.Captured = make([]seeds.ReadSeeds, len(reads))
	}

	var firstErr error
	var errOnce sync.Once
	processRead := func(worker, i int, reader gbwt.BiReader) {
		read := &reads[i]
		// Preprocess: minimizers + seeds — the same Preprocess the streaming
		// ExtractSource and capture paths run, so every route into the
		// kernels sees identical records.
		t0 := time.Now()
		rec, err := Preprocess(ix.MinIx, read)
		opts.Trace.Record(worker, trace.RegionMinimizer, t0, time.Since(t0))
		if err != nil {
			errOnce.Do(func() { firstErr = err })
			return
		}
		if opts.CaptureSeeds {
			res.Captured[i] = rec
		}
		// The two critical functions (cluster_seeds and
		// process_until_threshold_c), through the shared mapping engine.
		exts := mapper.MapRecord(worker, reader, &rec, i)
		res.Extensions[i] = exts
		// Post-processing (the phase the proxy omits).
		t0 = time.Now()
		res.Alignments[i] = postprocess(read, exts)
		opts.Trace.Record(worker, trace.RegionPostproc, t0, time.Since(t0))
		// Alignment phase: gapped tail refinement of partial extensions.
		t0 = time.Now()
		res.Alignments[i] = refineAlignment(ix, reader, read, res.Alignments[i])
		opts.Trace.Record(worker, trace.RegionAlign, t0, time.Since(t0))
	}

	start := time.Now()
	runVGScheduler(len(reads), opts, mapper.NewReader, processRead, mapper.TryPublishEpoch)
	res.Makespan = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// minMappedScoreFraction is the score floor (relative to read length) below
// which a read is reported unmapped.
const minMappedScoreFraction = 0.5

// postprocess scores and filters a read's extensions into an alignment —
// Giraffe's refinement phase: low-score extensions are discarded and the
// best surviving one becomes the primary alignment.
func postprocess(read *dna.Read, exts []extend.Extension) Alignment {
	al := Alignment{ReadName: read.Name}
	if len(exts) == 0 {
		return al
	}
	best := exts[0] // kernel output is score-descending
	al.Best = best  // retained even below the floor: the alignment phase may rescue it
	floor := int32(float64(len(read.Seq)) * minMappedScoreFraction)
	if best.Score < floor {
		return al
	}
	al.Mapped = true
	secondBest := int32(-1 << 30)
	for _, e := range exts[1:] {
		if e.Score >= best.Score*4/5 {
			al.Secondary++
		}
		if e.Score > secondBest {
			secondBest = e.Score
		}
	}
	gap := int(best.Score)
	if secondBest > -1<<30 {
		gap = int(best.Score - secondBest)
	}
	q := gap * 2
	if q > 60 {
		q = 60
	}
	if q < 0 {
		q = 0
	}
	al.MappingQuality = q
	return al
}

// runVGScheduler reproduces VG's batch scheduler (§IV-A): the main thread
// slices reads into batches and hands them to worker goroutines; when every
// worker is busy (the dispatch channel would block), the main thread
// processes the batch itself. Every batch is processed with a fresh reader
// from newReader (a per-batch CachedGBWT, or a pinned epoch snapshot plus
// overflow), matching Giraffe's per-batch cache lifetime; endBatch runs at
// each batch boundary (the epoch publication point).
func runVGScheduler(n int, opts Options, newReader func(worker int) gbwt.BiReader, fn func(worker, index int, reader gbwt.BiReader), endBatch func(worker int) bool) {
	type batch struct{ start, end int }
	workers := opts.Threads - 1
	runBatch := func(worker int, b batch) {
		reader := newReader(worker)
		for i := b.start; i < b.end; i++ {
			fn(worker, i, reader)
		}
		if endBatch != nil {
			endBatch(worker)
		}
	}
	// One queue slot per worker models VG's busy-worker tracking: a send
	// succeeds while some worker has room; when every worker is occupied the
	// send would block and the main thread takes the batch itself.
	queue := make(chan batch, workers)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for b := range queue {
				runBatch(worker, b)
			}
		}(w)
	}
	for start := 0; start < n; start += opts.BatchSize {
		end := start + opts.BatchSize
		if end > n {
			end = n
		}
		b := batch{start, end}
		if workers == 0 {
			runBatch(0, b)
			continue
		}
		select {
		case queue <- b:
		default:
			// All workers busy: the main scheduler thread processes the
			// queued batch itself.
			runBatch(0, b)
		}
	}
	close(queue)
	wg.Wait()
}
