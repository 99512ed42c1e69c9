package giraffe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/fastq"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/workload"
)

// streamFixture generates a bundle and writes its reads to a FASTQ file —
// the on-disk input the streaming extraction path starts from.
func streamFixture(t testing.TB, spec workload.Spec) (*workload.Bundle, string) {
	t.Helper()
	b, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), spec.Name+".fq")
	if err := fastq.WriteFile(path, b.Reads); err != nil {
		t.Fatal(err)
	}
	return b, path
}

// TestExtractSourceMatchesCapture locks the streaming extraction to the
// batch capture: record for record, the ExtractSource must yield exactly
// what the materializing capture path produces — and every record Next
// returned is the caller's, still that record once the stream has reached
// EOF (cmd/bench's stream replay keeps them across batches).
func TestExtractSourceMatchesCapture(t *testing.T) {
	b, path := streamFixture(t, workload.AHuman().Scaled(0.04))
	want, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenExtractSource(b.MinIx, path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var got []*seeds.ReadSeeds
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, capture has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], want[i]) {
			t.Fatalf("record %d differs:\nstream  %+v\ncapture %+v", i, *got[i], want[i])
		}
	}
	if src.Reads() != len(want) {
		t.Errorf("Reads() = %d, want %d", src.Reads(), len(want))
	}
	if src.TotalSeeds() == 0 {
		t.Error("TotalSeeds() = 0")
	}
}

// TestDifferentialCSV is the differential harness of the PR: the same
// workload mapped five ways — (a) the batch core.Mapper, (b) the pipeline
// over a captured-seed file, (c) the pipeline over the streaming
// ExtractSource with no capture file on disk, (d) the pipeline under the
// epoch-published shared cache, and (e) the serving pipeline.Session under
// the epoch cache — must produce byte-identical CSV output, on uniform and
// zipf-skewed workloads. Legs (d) and (e) are the lock on the epoch
// discipline: hot records answered from a shared snapshot built
// concurrently with mapping must not change a single output byte, on
// either the batch or the serve path.
func TestDifferentialCSV(t *testing.T) {
	differentialCSV(t, 0, 1)
}

// TestDifferentialCSVRecycledSlots is the same harness with the streamed
// legs at Depth 1 over fifty times the reads: the run's three batch slots
// are each refilled a hundred to three hundred times, by an ingest stage that
// is always one slot behind the workers, so a record or a result window
// reused before its last reader was done with it changes the CSV (and, under
// `make race`, is reported).
func TestDifferentialCSVRecycledSlots(t *testing.T) {
	differentialCSV(t, 1, 50)
}

// differentialCSV runs the harness with the streamed legs' in-flight bound at
// depth batches (0: the default) over reads times the usual read counts.
func differentialCSV(t *testing.T, depth int, reads float64) {
	zipf := workload.BYeast().Scaled(0.004 * reads)
	zipf.Name = "B-yeast-zipf"
	zipf.ZipfS = 1.4
	specs := []workload.Spec{
		workload.AHuman().Scaled(0.04 * reads),
		workload.BYeast().Scaled(0.004 * reads),
		zipf,
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			b, fqPath := streamFixture(t, spec)
			recs, err := b.CaptureSeeds()
			if err != nil {
				t.Fatal(err)
			}

			// (a) Batch proxy.
			res, err := core.Run(b.GBZ(), recs, core.Options{Threads: 2, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			var batchCSV bytes.Buffer
			if err := core.WriteCSV(&batchCSV, recs, res); err != nil {
				t.Fatal(err)
			}

			m, err := core.NewMapper(b.GBZ(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}

			// (b) Pipeline over a captured-seed file.
			capPath := filepath.Join(t.TempDir(), "capture.bin")
			if err := seeds.WriteFile(capPath, recs); err != nil {
				t.Fatal(err)
			}
			fileSrc, err := seeds.Open(capPath)
			if err != nil {
				t.Fatal(err)
			}
			defer fileSrc.Close()
			var fileCSV bytes.Buffer
			if _, err := pipeline.RunToCSV(m, fileSrc, &fileCSV, pipeline.Options{
				Workers: 3, BatchSize: 8, Depth: depth, Scheduler: sched.WorkStealing,
			}); err != nil {
				t.Fatal(err)
			}

			// (c) Pipeline over the streaming ExtractSource — no capture file.
			extSrc, err := OpenExtractSource(b.MinIx, fqPath, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer extSrc.Close()
			var streamCSV bytes.Buffer
			st, err := pipeline.RunToCSV(m, extSrc, &streamCSV, pipeline.Options{
				Workers: 3, BatchSize: 8, Depth: depth, Scheduler: sched.Dynamic,
			})
			if err != nil {
				t.Fatal(err)
			}

			// (d) Pipeline under the epoch-published shared cache: a tiny
			// private overflow (16) forces most traffic through the shared
			// snapshot, and BatchSize 8 over 3 workers republishes many
			// times mid-run.
			epochM, err := core.NewMapper(b.GBZ(), core.Options{
				Threads: 3, CacheCapacity: 16, EpochCapacity: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			epochSrc, err := seeds.Open(capPath)
			if err != nil {
				t.Fatal(err)
			}
			defer epochSrc.Close()
			var epochCSV bytes.Buffer
			if _, err := pipeline.RunToCSV(epochM, epochSrc, &epochCSV, pipeline.Options{
				Workers: 3, BatchSize: 8, Depth: depth, Scheduler: sched.WorkStealing,
			}); err != nil {
				t.Fatal(err)
			}
			if !epochM.EpochEnabled() {
				t.Fatal("epoch cache not enabled on the epoch leg")
			}

			// (e) Serving path: pipeline.Session over the same epoch mapper
			// configuration. Submit returns results in request order, so
			// the CSV assembles identically.
			servM, err := core.NewMapper(b.GBZ(), core.Options{
				Threads: 3, CacheCapacity: 16, EpochCapacity: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := pipeline.NewSession(servM, pipeline.Options{
				Workers: 3, BatchSize: 8, Depth: max(64, (len(recs)+7)/8), Scheduler: sched.Dynamic,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			// Two requests over the same records: the first seeds the
			// frequency feedback, the second maps against a warm snapshot —
			// both must be byte-identical to the batch output, and the
			// second proves the snapshot actually serves across requests.
			if _, err := sess.Submit(context.Background(), recs); err != nil {
				t.Fatal(err)
			}
			exts, err := sess.Submit(context.Background(), recs)
			if err != nil {
				t.Fatal(err)
			}
			var serveCSV bytes.Buffer
			if err := core.WriteCSVHeader(&serveCSV); err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if err := core.WriteCSVRecord(&serveCSV, &recs[i], exts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if cs := sess.CacheStats(); cs.SharedHits == 0 {
				t.Error("serve leg never hit the shared snapshot across two warm requests")
			}

			if !bytes.Equal(batchCSV.Bytes(), fileCSV.Bytes()) {
				t.Error("capture-file pipeline CSV differs from batch CSV")
			}
			if !bytes.Equal(batchCSV.Bytes(), streamCSV.Bytes()) {
				t.Error("fastq-stream pipeline CSV differs from batch CSV")
			}
			if !bytes.Equal(batchCSV.Bytes(), epochCSV.Bytes()) {
				t.Error("epoch-cache pipeline CSV differs from batch CSV")
			}
			if !bytes.Equal(batchCSV.Bytes(), serveCSV.Bytes()) {
				t.Error("epoch-cache serve (Session) CSV differs from batch CSV")
			}
			if st.Reads != len(recs) {
				t.Errorf("streamed %d of %d reads", st.Reads, len(recs))
			}
			if st.IngestLatency.N != int64(st.Batches) {
				t.Errorf("ingest latency has %d samples for %d batches", st.IngestLatency.N, st.Batches)
			}
			// The streaming ingest stage did the extraction work, so it
			// cannot be free.
			if st.IngestLatency.Mean <= 0 {
				t.Error("zero ingest latency on the extraction path")
			}
		})
	}
}

// TestCaptureSeedsStreamRoundTrip locks the streaming v2 capture to the v1
// writer: both paths must store identical records, including paired-end
// fragment numbering.
func TestCaptureSeedsStreamRoundTrip(t *testing.T) {
	b, path := streamFixture(t, workload.CHPRC().Scaled(0.008))
	want, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	// v1: count-up-front, from materialized records.
	v1Path := filepath.Join(t.TempDir(), "v1.bin")
	if err := seeds.WriteFile(v1Path, want); err != nil {
		t.Fatal(err)
	}
	v1, err := seeds.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	// v2: streamed record by record from the FASTQ file, no materialization.
	fq, err := fastq.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fqText bytes.Buffer
	if err := fastq.Write(&fqText, fq); err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	st, err := CaptureSeeds(b.MinIx, &fqText, &capture)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != len(want) {
		t.Fatalf("streamed capture wrote %d records, want %d", st.Reads, len(want))
	}
	r, err := seeds.NewReader(bytes.NewReader(capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var v2 []seeds.ReadSeeds
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		v2 = append(v2, *rec)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("streamed v2 capture differs from v1 capture")
	}
}

// TestExtractSourceParseError propagates a malformed FASTQ through the
// pipeline as an ingest error.
func TestExtractSourceParseError(t *testing.T) {
	b, _ := streamFixture(t, workload.AHuman().Scaled(0.02))
	m, err := core.NewMapper(b.GBZ(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewExtractSourceObs(b.MinIx, strings.NewReader("not a fastq file\n"), nil)
	defer src.Close()
	var buf bytes.Buffer
	_, err = pipeline.RunToCSV(m, src, &buf, pipeline.Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "expected @header") {
		t.Fatalf("parse error not propagated: %v", err)
	}
}

// TestExtractSourceCloseEarly closes a source mid-stream, with records it
// extracted ahead of Next still unconsumed: Close releases the file and may
// be called twice.
func TestExtractSourceCloseEarly(t *testing.T) {
	b, path := streamFixture(t, workload.AHuman().Scaled(0.04))
	src, err := OpenExtractSource(b.MinIx, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPreprocessSharedByBatchAndStream pins the refactor: Map's captured
// records are exactly Preprocess output.
func TestPreprocessSharedByBatchAndStream(t *testing.T) {
	b := testBundle(t, 0.03)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(ix, b.Reads, Options{Threads: 2, CaptureSeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Reads {
		want, err := Preprocess(ix.MinIx, &b.Reads[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Captured[i], want) {
			t.Fatalf("captured record %d differs from Preprocess output", i)
		}
	}
}

// TestShortReadStreamsUnmapped: a read too short for one minimizer window
// has no seeds and maps nowhere; it does not end the stream, the batch or the
// capture it is part of, and the batch and streamed CSVs still agree on it.
func TestShortReadStreamsUnmapped(t *testing.T) {
	b, err := workload.Generate(workload.AHuman().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	mid := len(b.Reads) / 2
	short := dna.Read{Name: "short", Seq: b.Reads[mid].Seq[:10], Fragment: -1}
	reads := append(append(append([]dna.Read(nil), b.Reads[:mid]...), short), b.Reads[mid:]...)
	var fq bytes.Buffer
	if err := fastq.Write(&fq, reads); err != nil {
		t.Fatal(err)
	}

	recs := make([]seeds.ReadSeeds, len(reads))
	for i := range reads {
		if recs[i], err = Preprocess(b.MinIx, &reads[i]); err != nil {
			t.Fatalf("read %d (%d bases): %v", i, len(reads[i].Seq), err)
		}
	}
	if recs[mid].Seeds != nil {
		t.Fatalf("the %d-base read has seeds: %+v", len(short.Seq), recs[mid].Seeds)
	}
	res, err := core.Run(b.GBZ(), recs, core.Options{Threads: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Extensions[mid]) != 0 || len(res.Extensions[mid-1])+len(res.Extensions[mid+1]) == 0 {
		t.Fatalf("want the short read unmapped between mapped ones, got %d / %d / %d extensions",
			len(res.Extensions[mid-1]), len(res.Extensions[mid]), len(res.Extensions[mid+1]))
	}
	var batchCSV, streamCSV, capture bytes.Buffer
	if err := core.WriteCSV(&batchCSV, recs, res); err != nil {
		t.Fatal(err)
	}

	m, err := core.NewMapper(b.GBZ(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.RunToCSV(m, NewExtractSourceObs(b.MinIx, bytes.NewReader(fq.Bytes()), nil), &streamCSV,
		pipeline.Options{Workers: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != len(reads) {
		t.Fatalf("streamed %d of %d reads", st.Reads, len(reads))
	}
	if !bytes.Equal(batchCSV.Bytes(), streamCSV.Bytes()) {
		t.Error("streamed CSV differs from batch CSV")
	}
	if cs, err := CaptureSeeds(b.MinIx, bytes.NewReader(fq.Bytes()), &capture); err != nil || cs.Reads != len(reads) {
		t.Errorf("capture stopped after %d of %d reads: %v", cs.Reads, len(reads), err)
	}
}

// failAfter is an emitter that fails on its n-th record.
type failAfter struct{ n, seen int }

func (e *failAfter) Emit(*seeds.ReadSeeds, []extend.Extension) error {
	if e.seen++; e.seen == e.n {
		return errors.New("emitter broke")
	}
	return nil
}

// TestRecycledSlotsFailedRun fails a Depth-1 stream in its middle, once from
// the source (a FASTQ cut inside a record) and once from the emitter, with
// every slot in flight: Run returns that error and leaves no goroutine
// behind — ingest is never left waiting for a slot a failed run kept.
func TestRecycledSlotsFailedRun(t *testing.T) {
	b, path := streamFixture(t, workload.AHuman().Scaled(0.5))
	m, err := core.NewMapper(b.GBZ(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(text[:len(text)/2], '@') + 5 // inside a header: no sequence follows
	for _, tc := range []struct {
		name string
		text []byte
		fail int // the emitted record that fails; 0: none
		want string
	}{
		{"source", text[:cut], 0, "truncated before sequence"},
		{"emitter", text, len(b.Reads) / 2, "emitter broke"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range []sched.Kind{sched.Dynamic, sched.Static, sched.WorkStealing} {
				before := runtime.NumGoroutine()
				st, err := pipeline.Run(m, NewExtractSourceObs(b.MinIx, bytes.NewReader(tc.text), nil), &failAfter{n: tc.fail},
					pipeline.Options{Workers: 3, BatchSize: 8, Depth: 1, Scheduler: kind})
				if st != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%v: Run = %v, %v; want the %q failure", kind, st, err, tc.want)
				}
				// Ingest's last act is closing the hand-off, an instant after
				// Run's return.
				for i := 0; runtime.NumGoroutine() > before; i++ {
					if i == 500 {
						t.Fatalf("%v: %d goroutines before the run, %d after", kind, before, runtime.NumGoroutine())
					}
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}
