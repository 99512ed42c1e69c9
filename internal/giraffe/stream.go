package giraffe

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/minimizer"
	"repro/internal/obs"
	"repro/internal/seeds"
)

// Preprocess runs Giraffe's per-read preprocessing — minimizer lookup and
// seed creation — and bundles the result into the record the critical
// functions consume. Every path into the kernels preprocesses through it —
// the batch emulator (Map) and the capture tools (CaptureSeeds,
// cmd/extractseeds) — or, for the streaming ExtractSource, through the append
// form of the same seeds.Extract (seeds.Batch.Add), so the §VI-a output match
// between parent and proxy holds for the streaming paths by construction.
func Preprocess(ix *minimizer.Index, read *dna.Read) (seeds.ReadSeeds, error) {
	ss, err := seeds.Extract(ix, read)
	if err != nil {
		return seeds.ReadSeeds{}, fmt.Errorf("giraffe: read %s: %w", read.Name, err)
	}
	return seeds.ReadSeeds{Read: *read, Seeds: ss}, nil
}

// nextBatch is how many records Next extracts at a time.
const nextBatch = 64

// ExtractSource streams the capture→proxy loop as a single process: it reads
// FASTQ records incrementally, extracts each one's seeds, and yields
// seeds.ReadSeeds on demand — a pipeline.Source with no captured-seed file on
// disk and no whole-workload buffering. It starts no goroutine: extraction
// runs on the caller's, which for the pipeline is the ingest stage, so FASTQ
// parsing and minimizer lookup hide behind the mapping stage the same way
// ingest I/O does.
//
// There are two ways to read it, and a caller uses one of them. ReadBatch
// fills a batch the caller owns and recycles: a warm stream then allocates
// one name string per batch and nothing per read (what pipeline.Run does).
// Next yields one record at a time out of fresh batches that are never
// refilled, so a record from Next is the caller's to keep.
//
// Neither is safe for concurrent use. Close releases the underlying file, if
// any; it is safe to call more than once and before the stream is drained.
type ExtractSource struct {
	ix     *minimizer.Index
	sc     *fastq.Scanner
	closer io.Closer
	err    error // sticky: io.EOF or what ended the stream

	next []seeds.ReadSeeds // what Next has left of the fresh batch it is handing out

	// Extraction metrics, recorded into shard 0. All handles are nil (no-op)
	// when the source was built without a registry; instr additionally gates
	// the time.Now calls.
	instr       bool
	mReads      *obs.Counter
	mSeeds      *obs.Counter
	hPreprocess *obs.Histogram

	reads      int
	totalSeeds int
}

// NewExtractSourceObs streams extraction of the FASTQ text in r against the
// minimizer index. With an observability registry it counts extracted reads
// and seeds and records per-read preprocessing latency (extract_reads_total,
// extract_seeds_total, extract_preprocess_seconds); a nil registry records
// nothing.
func NewExtractSourceObs(ix *minimizer.Index, r io.Reader, reg *obs.Registry) *ExtractSource {
	return &ExtractSource{
		ix:          ix,
		sc:          fastq.NewScanner(r),
		instr:       reg != nil,
		mReads:      reg.Counter(obs.MetricExtractReads),
		mSeeds:      reg.Counter(obs.MetricExtractSeeds),
		hPreprocess: reg.Histogram(obs.MetricExtractPreprocess),
	}
}

// OpenExtractSource streams extraction from the FASTQ file at path; the file
// is released by Close. The last argument was the prefetch window of a
// goroutine that is gone and is ignored.
func OpenExtractSource(ix *minimizer.Index, path string, _ int) (*ExtractSource, error) {
	return OpenExtractSourceObs(ix, path, nil)
}

// OpenExtractSourceObs is OpenExtractSource with an observability registry
// (see NewExtractSourceObs).
func OpenExtractSourceObs(ix *minimizer.Index, path string, reg *obs.Registry) (*ExtractSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := NewExtractSourceObs(ix, f, reg)
	s.closer = f
	return s, nil
}

// ReadBatch resets b and fills it with up to n records: scan, extract,
// append — the source's one extraction loop. It returns io.EOF at the end of
// the FASTQ stream, possibly with a final short batch in b, or the error that
// ended the stream, with the records read before it. pipeline.Run finds this
// method on its Source and calls it with a recycled batch in place of n
// Next calls.
func (s *ExtractSource) ReadBatch(b *seeds.Batch, n int) error {
	b.Reset()
	for s.err == nil && len(b.Recs) < n {
		read, err := b.Scan(s.sc)
		switch {
		case err == io.EOF:
			s.err = err
		case err != nil:
			s.err = fmt.Errorf("giraffe: extract: %w", err)
		default:
			var t0 time.Time
			if s.instr {
				t0 = time.Now()
			}
			err = b.Add(s.ix, read)
			if s.instr {
				s.hPreprocess.Observe(0, time.Since(t0))
			}
			if err != nil {
				s.err = fmt.Errorf("giraffe: extract: read %d: %w", s.reads+len(b.Recs), err)
			}
		}
	}
	b.Seal()
	nSeeds := 0
	for i := range b.Recs {
		nSeeds += len(b.Recs[i].Seeds)
	}
	s.mReads.Add(0, int64(len(b.Recs)))
	s.mSeeds.Add(0, int64(nSeeds))
	s.reads += len(b.Recs)
	s.totalSeeds += nSeeds
	return s.err
}

// Next implements pipeline.Source: it returns the next preprocessed record,
// io.EOF at the end of the FASTQ stream, or the first extraction error. The
// record is the caller's: it lives in a batch no later call refills.
func (s *ExtractSource) Next() (*seeds.ReadSeeds, error) {
	for len(s.next) == 0 {
		if s.err != nil {
			return nil, s.err
		}
		b := new(seeds.Batch)
		_ = s.ReadBatch(b, nextBatch) // kept in s.err, returned once b is handed out
		s.next = b.Recs
	}
	rec := &s.next[0]
	s.next = s.next[1:]
	return rec, nil
}

// Close releases the underlying file (when the source was opened from a
// path).
func (s *ExtractSource) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// Reads returns how many records have been extracted.
func (s *ExtractSource) Reads() int { return s.reads }

// TotalSeeds returns the summed seed count of the extracted records.
func (s *ExtractSource) TotalSeeds() int { return s.totalSeeds }

// CaptureStats reports a streaming capture run.
type CaptureStats struct {
	Reads      int
	TotalSeeds int
}

// CaptureSeeds is the emulator's streaming capture path: it extracts seeds
// from the FASTQ text in r and writes each record to w through the
// count-free v2 stream writer (seeds.NewStreamWriter) as soon as it is
// preprocessed — capture no longer buffers the whole workload to learn the
// record count before the header can be written. The records and their
// order are identical to the batch capture path (both run Preprocess per
// read, in file order), so v1 and v2 captures read back equal.
func CaptureSeeds(ix *minimizer.Index, r io.Reader, w io.Writer) (CaptureStats, error) {
	var st CaptureStats
	sw, err := seeds.NewStreamWriter(w)
	if err != nil {
		return st, err
	}
	sc := fastq.NewScanner(r)
	for {
		read, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, fmt.Errorf("giraffe: capture: %w", err)
		}
		rec, err := Preprocess(ix, &read)
		if err != nil {
			return st, err
		}
		if err := sw.Write(&rec); err != nil {
			return st, err
		}
		st.Reads++
		st.TotalSeeds += len(rec.Seeds)
	}
	return st, sw.Close()
}
