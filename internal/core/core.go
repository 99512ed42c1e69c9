// Package core is miniGiraffe: the proxy application for Giraffe's
// pangenome mapping pipeline (§V of the paper). It consumes the inputs
// captured from the parent right before the critical functions — the reads
// with their preprocessed seeds (package seeds' .bin format) and the
// pangenome reference as a GBZ file — and executes exactly the two critical
// functions, cluster_seeds and process_until_threshold_c, under a
// configurable parallel scheduler. Its output is the raw mapping result:
// the offsets and scores of each match, with no post-processing.
//
// The three tuning parameters of the paper's autotuning study (§VII-B) are
// all exposed: scheduling policy, batch size, and the initial CachedGBWT
// capacity.
package core

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/vgraph"
)

// Options configures a proxy run: the paper's tuning parameters plus
// instrumentation hooks.
type Options struct {
	// Threads is the worker count; ≤0 means GOMAXPROCS.
	Threads int
	// BatchSize is the scheduler batch size (default 512, as in Giraffe).
	BatchSize int
	// CacheCapacity is each worker's initial CachedGBWT capacity; 0 means
	// the Giraffe default (256), negative disables caching. Under the epoch
	// discipline (EpochCapacity > 0) this sizes the per-worker private
	// overflow layer instead — the same §VII-B knob, applied to snapshot
	// misses only.
	CacheCapacity int
	// EpochCapacity, when > 0, turns on the epoch-published shared cache:
	// a read-only snapshot of up to EpochCapacity hot records per GBWT
	// direction that all workers query lock-free, republished at batch
	// boundaries from access-frequency feedback. 0 (the default) keeps the
	// paper's rebuild-per-worker-per-batch discipline.
	EpochCapacity int
	// Scheduler selects the parallel scheduling policy.
	Scheduler sched.Kind
	// Trace records per-region spans when non-nil.
	Trace *trace.Recorder
	// Obs, when non-nil, receives kernel latency histograms (cluster,
	// process_until_threshold_c, per-batch cache rebuild) and scheduler
	// counters. Nil keeps the hot path free of timing calls.
	Obs *obs.Registry
	// Slow, when non-nil, receives a slow-read exemplar for every mapped
	// record: the reservoir keeps the K slowest, with per-kernel timing and
	// cache-rebuild attribution. Nil (the default) keeps the hot path
	// capture-free.
	Slow *obs.SlowReads
	// Probe drives the hardware-counter model; only honoured with
	// Threads == 1.
	Probe counters.Probe
	// Extend and Cluster tune the critical functions.
	Extend  extend.Params
	Cluster cluster.Params
}

func (o Options) normalize() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = sched.DefaultBatchSize
	}
	switch {
	case o.CacheCapacity == 0:
		o.CacheCapacity = gbwt.DefaultCacheCapacity
	case o.CacheCapacity < 0:
		o.CacheCapacity = 0
	}
	if o.EpochCapacity < 0 {
		o.EpochCapacity = 0
	}
	return o
}

// Result is a completed proxy run.
type Result struct {
	// Extensions holds the raw kernel output per input record.
	Extensions [][]extend.Extension
	// Makespan is the end-to-end mapping wall time (the paper's tuning
	// metric, §VII-B).
	Makespan time.Duration
	// Sched reports scheduler behaviour.
	Sched sched.Stats
	// Cache aggregates every worker's CachedGBWT statistics.
	Cache gbwt.CacheStats
}

// Run executes the proxy over the captured records: index preparation plus a
// batch mapping pass. Callers that map more than once (or stream) should
// build a Mapper and reuse it.
func Run(f *gbz.File, records []seeds.ReadSeeds, opts Options) (*Result, error) {
	m, err := NewMapper(f, opts)
	if err != nil {
		return nil, err
	}
	return m.Run(records)
}

// defaultThreads mirrors sched's default worker count.
func defaultThreads() int { return runtime.GOMAXPROCS(0) }

// WriteCSV emits the proxy's raw mapping output: one row per extension with
// the read name, graph position, strand, read interval, score, and mismatch
// offsets — the .csv output format of the artifact.
func WriteCSV(w io.Writer, records []seeds.ReadSeeds, res *Result) error {
	if len(records) != len(res.Extensions) {
		return fmt.Errorf("core: %d records but %d extension sets", len(records), len(res.Extensions))
	}
	if err := WriteCSVHeader(w); err != nil {
		return err
	}
	for i := range records {
		if err := WriteCSVRecord(w, &records[i], res.Extensions[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVHeader writes the CSV column header. The streaming pipeline's
// emitter shares it with WriteCSV so both modes produce byte-identical
// output.
func WriteCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "read,node,offset,strand,read_start,read_end,score,mismatches")
	return err
}

// WriteCSVRecord writes one record's extension rows, in one Write. The rows
// are rendered into a pooled buffer: a slice handed to an io.Writer escapes,
// so a buffer on the stack would be an allocation per call. A caller that
// writes many records and owns a buffer uses AppendCSVRecord directly, as
// pipeline.CSVEmitter does.
func WriteCSVRecord(w io.Writer, rec *seeds.ReadSeeds, exts []extend.Extension) error {
	if len(exts) == 0 {
		return nil
	}
	bp := csvRows.Get().(*[]byte)
	*bp = AppendCSVRecord((*bp)[:0], rec, exts)
	_, err := w.Write(*bp)
	csvRows.Put(bp)
	return err
}

var csvRows = sync.Pool{New: func() any { return new([]byte) }}

// AppendCSVRecord appends one record's extension rows to buf and returns it:
// "%s,%d,%d,%s,%d,%d,%d,%s\n" of the read name, start node and offset,
// strand, read interval, score and the ';'-joined mismatch offsets, byte for
// byte, without fmt.
func AppendCSVRecord(buf []byte, rec *seeds.ReadSeeds, exts []extend.Extension) []byte {
	for i := range exts {
		e := &exts[i]
		buf = append(buf, rec.Read.Name...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(e.StartPos.Node), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.StartPos.Off), 10)
		if e.Rev {
			buf = append(buf, ",-,"...)
		} else {
			buf = append(buf, ",+,"...)
		}
		buf = strconv.AppendInt(buf, int64(e.ReadStart), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.ReadEnd), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Score), 10)
		buf = append(buf, ',')
		for j, m := range e.Mismatches {
			if j > 0 {
				buf = append(buf, ';')
			}
			buf = strconv.AppendInt(buf, int64(m), 10)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// ValidationReport summarises the §VI-a functional validation: property (1)
// every expected match appears in the proxy output, property (2) the proxy
// output contains no match absent from the expected output.
type ValidationReport struct {
	Reads          int
	ExpectedTotal  int
	GotTotal       int
	MissingInProxy int // expected but absent
	ExtraInProxy   int // present but unexpected
}

// Match reports a 100% two-way match.
func (v ValidationReport) Match() bool { return v.MissingInProxy == 0 && v.ExtraInProxy == 0 }

// String renders the report one line per property.
func (v ValidationReport) String() string {
	status := "FAIL"
	if v.Match() {
		status = "PASS (100% match)"
	}
	return fmt.Sprintf("validation %s: reads=%d expected=%d got=%d missing=%d extra=%d",
		status, v.Reads, v.ExpectedTotal, v.GotTotal, v.MissingInProxy, v.ExtraInProxy)
}

// Validate compares the parent's exported extensions against the proxy's,
// read by read, in both directions.
func Validate(expected, got [][]extend.Extension) (ValidationReport, error) {
	if len(expected) != len(got) {
		return ValidationReport{}, fmt.Errorf("core: %d expected reads vs %d proxy reads", len(expected), len(got))
	}
	rep := ValidationReport{Reads: len(expected)}
	for i := range expected {
		rep.ExpectedTotal += len(expected[i])
		rep.GotTotal += len(got[i])
		exp := alignmentSet(expected[i])
		act := alignmentSet(got[i])
		for k := range exp {
			if !act[k] {
				rep.MissingInProxy++
			}
		}
		for k := range act {
			if !exp[k] {
				rep.ExtraInProxy++
			}
		}
	}
	return rep, nil
}

// alignment is an extension's identity for validation: where it starts, the
// read interval and strand it covers, and its score, so a score drift also
// fails validation. Path and Mismatches follow from the rest.
type alignment struct {
	start              vgraph.Position
	readStart, readEnd int32
	rev                bool
	score              int32
}

func alignmentSet(exts []extend.Extension) map[alignment]bool {
	m := make(map[alignment]bool, len(exts))
	for _, e := range exts {
		m[alignment{e.StartPos, e.ReadStart, e.ReadEnd, e.Rev, e.Score}] = true
	}
	return m
}
