package giraffe

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/minimizer"
	"repro/internal/obs"
	"repro/internal/seeds"
)

// Preprocess runs Giraffe's per-read preprocessing — minimizer lookup and
// seed creation — and bundles the result into the record the critical
// functions consume. This is the one preprocessing function shared by every
// path into the kernels: the batch emulator (Map), the streaming
// ExtractSource, and the capture tools (CaptureSeeds, cmd/extractseeds).
// The §VI-a output match between parent and proxy holds for the streaming
// paths by construction because they cannot diverge from the batch loop here.
func Preprocess(ix *minimizer.Index, read *dna.Read) (seeds.ReadSeeds, error) {
	ss, err := seeds.Extract(ix, read)
	if err != nil {
		return seeds.ReadSeeds{}, fmt.Errorf("giraffe: read %s: %w", read.Name, err)
	}
	return seeds.ReadSeeds{Read: *read, Seeds: ss}, nil
}

// DefaultLookahead is the ExtractSource prefetch bound: how many
// preprocessed records may sit between the extractor and the consumer. One
// scheduler batch (512, Giraffe's default) keeps extraction ahead of the
// mapping stage without buffering a second workload in memory.
const DefaultLookahead = 512

// extracted is one prefetched record or the error that ended the stream.
type extracted struct {
	rec *seeds.ReadSeeds
	err error
}

// ExtractSource streams the capture→proxy loop as a single process: it reads
// FASTQ records incrementally, runs Preprocess on each, and yields
// *seeds.ReadSeeds on demand — a pipeline.Source with no captured-seed file
// on disk and no whole-workload buffering. Extraction runs ahead of the
// consumer in a prefetch goroutine bounded by the lookahead window, so FASTQ
// parsing and minimizer lookup hide behind the mapping stage the same way
// ingest I/O does.
//
// Next is not safe for concurrent use (the pipeline's single ingest
// goroutine is the intended caller). Close releases the prefetcher and any
// underlying file; it is safe to call even when the stream was not drained.
type ExtractSource struct {
	ch        chan extracted
	quit      chan struct{}
	closeOnce sync.Once
	closer    io.Closer

	// Extraction metrics, recorded by the single prefetch goroutine into
	// shard 0. All handles are nil (no-op) when the source was built without
	// a registry; instr additionally gates the time.Now calls.
	instr       bool
	mReads      *obs.Counter
	mSeeds      *obs.Counter
	hPreprocess *obs.Histogram

	reads      int
	totalSeeds int
}

// NewExtractSourceObs starts streaming extraction of the FASTQ text in r
// against the minimizer index. lookahead bounds the prefetch window (≤0
// means DefaultLookahead). With an observability registry the prefetch stage
// counts extracted reads and seeds and records per-read preprocessing
// latency (extract_reads_total, extract_seeds_total,
// extract_preprocess_seconds); a nil registry records nothing.
func NewExtractSourceObs(ix *minimizer.Index, r io.Reader, lookahead int, reg *obs.Registry) *ExtractSource {
	if lookahead <= 0 {
		lookahead = DefaultLookahead
	}
	s := &ExtractSource{
		ch:          make(chan extracted, lookahead),
		quit:        make(chan struct{}),
		instr:       reg != nil,
		mReads:      reg.Counter(obs.MetricExtractReads),
		mSeeds:      reg.Counter(obs.MetricExtractSeeds),
		hPreprocess: reg.Histogram(obs.MetricExtractPreprocess),
	}
	go func() {
		defer close(s.ch)
		s.extract(ix, r)
	}()
	return s
}

// OpenExtractSource streams extraction from the FASTQ file at path; the file
// is released by Close.
func OpenExtractSource(ix *minimizer.Index, path string, lookahead int) (*ExtractSource, error) {
	return OpenExtractSourceObs(ix, path, lookahead, nil)
}

// OpenExtractSourceObs is OpenExtractSource with an observability registry
// (see NewExtractSourceObs).
func OpenExtractSourceObs(ix *minimizer.Index, path string, lookahead int, reg *obs.Registry) (*ExtractSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := NewExtractSourceObs(ix, f, lookahead, reg)
	s.closer = f
	return s, nil
}

// extract is the prefetch stage: scan, preprocess, hand off — until EOF, a
// parse error, or Close.
func (s *ExtractSource) extract(ix *minimizer.Index, r io.Reader) {
	sc := fastq.NewScanner(r)
	for {
		read, err := sc.Next()
		if err == io.EOF {
			return
		}
		var e extracted
		if err != nil {
			e = extracted{err: fmt.Errorf("giraffe: extract: %w", err)}
		} else {
			var t0 time.Time
			if s.instr {
				t0 = time.Now()
			}
			rec, perr := Preprocess(ix, &read)
			if s.instr {
				s.hPreprocess.Observe(0, time.Since(t0))
			}
			if perr != nil {
				e = extracted{err: perr}
			} else {
				e = extracted{rec: &rec}
				s.mReads.Inc(0)
				s.mSeeds.Add(0, int64(len(rec.Seeds)))
			}
		}
		select {
		case s.ch <- e:
		case <-s.quit:
			return
		}
		if e.err != nil {
			return
		}
	}
}

// Next implements pipeline.Source: it returns the next preprocessed record,
// io.EOF at the end of the FASTQ stream, or the first extraction error.
func (s *ExtractSource) Next() (*seeds.ReadSeeds, error) {
	e, ok := <-s.ch
	if !ok {
		return nil, io.EOF
	}
	if e.err != nil {
		return nil, e.err
	}
	s.reads++
	s.totalSeeds += len(e.rec.Seeds)
	return e.rec, nil
}

// Close stops the prefetcher and releases the underlying file (when the
// source was opened from a path). It never blocks on unconsumed records.
func (s *ExtractSource) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.quit)
		if s.closer != nil {
			err = s.closer.Close()
		}
	})
	return err
}

// Reads returns how many records Next has yielded.
func (s *ExtractSource) Reads() int { return s.reads }

// TotalSeeds returns the summed seed count of the yielded records.
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
