package pipeline_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbz"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/vgraph"
	"repro/internal/workload"
)

// fixture generates a bundle and captures its seeds — the proxy's inputs.
func fixture(t testing.TB, scale float64) (*gbz.File, []seeds.ReadSeeds) {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	return b.GBZ(), recs
}

func batchCSV(t *testing.T, f *gbz.File, recs []seeds.ReadSeeds, opts core.Options) []byte {
	t.Helper()
	res, err := core.Run(f, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, recs, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesBatchCSV is the acceptance criterion: streaming mode must
// produce byte-identical WriteCSV output to batch mode on the same workload,
// for every scheduler policy and several pool/batch/depth shapes.
func TestStreamMatchesBatchCSV(t *testing.T) {
	f, recs := fixture(t, 0.06)
	want := batchCSV(t, f, recs, core.Options{Threads: 2, BatchSize: 8})
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		for _, workers := range []int{1, 3} {
			for _, batch := range []int{1, 4, 1024} {
				for _, depth := range []int{1, 4} {
					var buf bytes.Buffer
					st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
						Workers: workers, BatchSize: batch, Depth: depth, Scheduler: kind,
					})
					if err != nil {
						t.Fatalf("%v w=%d b=%d d=%d: %v", kind, workers, batch, depth, err)
					}
					if !bytes.Equal(want, buf.Bytes()) {
						t.Fatalf("%v w=%d b=%d d=%d: stream CSV differs from batch CSV", kind, workers, batch, depth)
					}
					if st.Reads != len(recs) {
						t.Errorf("%v w=%d b=%d d=%d: streamed %d of %d reads", kind, workers, batch, depth, st.Reads, len(recs))
					}
					wantBatches := (len(recs) + batch - 1) / batch
					if st.Batches != wantBatches {
						t.Errorf("%v w=%d b=%d d=%d: %d batches, want %d", kind, workers, batch, depth, st.Batches, wantBatches)
					}
				}
			}
		}
	}
}

// TestStreamFromFile exercises the incremental file reader end to end: write
// the capture to disk, stream it back without materializing, compare to the
// batch output.
func TestStreamFromFile(t *testing.T) {
	f, recs := fixture(t, 0.05)
	path := filepath.Join(t.TempDir(), "capture.bin")
	if err := seeds.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	want := batchCSV(t, f, recs, core.Options{Threads: 2, BatchSize: 8})
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := seeds.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var buf bytes.Buffer
	st, err := pipeline.RunToCSV(m, src, &buf, pipeline.Options{Workers: 4, BatchSize: 8, Scheduler: sched.WorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatal("stream-from-file CSV differs from batch CSV")
	}
	if st.Reads != len(recs) {
		t.Errorf("streamed %d of %d reads", st.Reads, len(recs))
	}
	if st.Cache.Accesses == 0 {
		t.Error("no cache activity recorded")
	}
}

func TestEmptySource(t *testing.T) {
	f, _ := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(nil), &buf, pipeline.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 0 || st.Batches != 0 {
		t.Errorf("empty source streamed reads=%d batches=%d", st.Reads, st.Batches)
	}
	if got := buf.String(); got != "read,node,offset,strand,read_start,read_end,score,mismatches\n" {
		t.Errorf("empty stream output = %q", got)
	}
}

func TestWorkersExceedBatches(t *testing.T) {
	f, recs := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := batchCSV(t, f, recs, core.Options{Threads: 1})
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		var buf bytes.Buffer
		// One giant batch, many workers: all but one idle.
		_, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
			Workers: 8, BatchSize: len(recs) + 10, Scheduler: kind,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("%v: CSV differs with idle workers", kind)
		}
	}
}

// errSource fails after yielding n records.
type errSource struct {
	recs []seeds.ReadSeeds
	n, i int
}

func (s *errSource) Next() (*seeds.ReadSeeds, error) {
	if s.i >= s.n {
		return nil, errors.New("disk on fire")
	}
	r := &s.recs[s.i]
	s.i++
	return r, nil
}

func TestSourceErrorPropagates(t *testing.T) {
	f, recs := fixture(t, 0.04)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = pipeline.RunToCSV(m, &errSource{recs: recs, n: len(recs) / 2}, &buf, pipeline.Options{
		Workers: 2, BatchSize: 4,
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("disk on fire")) {
		t.Fatalf("source error not propagated: %v", err)
	}
}

// TestIngestRefusesSeedOutsideTheGraph: a streamed record naming a node the
// graph lacks fails the run at ingest, like any other bad input.
func TestIngestRefusesSeedOutsideTheGraph(t *testing.T) {
	f, recs := fixture(t, 0.04)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]seeds.ReadSeeds(nil), recs...)
	victim := len(bad) - 1
	bad[victim].Seeds = []seeds.Seed{{Pos: vgraph.Position{Node: 1 << 30}}}
	var buf bytes.Buffer
	_, err = pipeline.RunToCSV(m, pipeline.NewSliceSource(bad), &buf, pipeline.Options{Workers: 2, BatchSize: 4})
	want := fmt.Sprintf("pipeline: ingest: record %d: ", victim)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}
}

// failEmitter errors on the nth emitted record.
type failEmitter struct{ n, i int }

func (e *failEmitter) Emit(*seeds.ReadSeeds, []extend.Extension) error {
	e.i++
	if e.i >= e.n {
		return fmt.Errorf("emit %d failed", e.i)
	}
	return nil
}

func TestEmitterErrorPropagates(t *testing.T) {
	f, recs := fixture(t, 0.04)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(m, pipeline.NewSliceSource(recs), &failEmitter{n: 3}, pipeline.Options{
		Workers: 3, BatchSize: 2,
	})
	if err == nil {
		t.Fatal("emitter error not propagated")
	}
}

// keepEmitter keeps the extensions of the first n records as it was handed
// them, each next to a deep copy taken on the spot.
type keepEmitter struct {
	n           int
	kept, saved [][]extend.Extension
}

func (e *keepEmitter) Emit(_ *seeds.ReadSeeds, exts []extend.Extension) error {
	if len(e.kept) < e.n {
		saved := make([]extend.Extension, len(exts))
		for i, x := range exts {
			saved[i] = x
			saved[i].Path = append([]vgraph.NodeID(nil), x.Path...)
			saved[i].Mismatches = append([]int32(nil), x.Mismatches...)
		}
		e.kept, e.saved = append(e.kept, exts), append(e.saved, saved)
	}
	return nil
}

// TestEmittedResultsAreTheEmittersToKeep: extensions handed to Emit are
// unchanged after ten thousand later reads have gone through the same
// workers, slots and result chunks (cmd/validate's collecting emitter keeps a
// whole run's).
func TestEmittedResultsAreTheEmittersToKeep(t *testing.T) {
	f, recs := fixture(t, 0.1)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var long []seeds.ReadSeeds
	for len(long) < len(recs)+10000 {
		long = append(long, recs...)
	}
	e := &keepEmitter{n: len(recs)}
	if _, err := pipeline.Run(m, pipeline.NewSliceSource(long), e, pipeline.Options{Workers: 3, BatchSize: 8, Depth: 1}); err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for i := range e.kept {
		if !reflect.DeepEqual(e.kept[i], e.saved[i]) {
			t.Fatalf("record %d's extensions changed after Emit returned\n now %+v\n was %+v", i, e.kept[i], e.saved[i])
		}
		if len(e.kept[i]) > 0 {
			mapped++
		}
	}
	if len(e.kept) != len(recs) || mapped < len(recs)/2 {
		t.Fatalf("kept %d of %d records, %d of them mapped", len(e.kept), len(recs), mapped)
	}
}

func TestStealsOnlyUnderWorkStealing(t *testing.T) {
	f, recs := fixture(t, 0.05)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sched.Kind{sched.Dynamic, sched.Static} {
		var buf bytes.Buffer
		st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
			Workers: 4, BatchSize: 2, Scheduler: kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Sched.Steals != 0 {
			t.Errorf("%v recorded %d steals", kind, st.Sched.Steals)
		}
	}
}

func TestStatsAndTrace(t *testing.T) {
	f, recs := fixture(t, 0.05)
	rec := trace.NewRecorder(1) // deliberately small: pipeline must Grow it
	m, err := core.NewMapper(f, core.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const workers = 3
	st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
		Workers: workers, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workers() < workers+2 {
		t.Fatalf("recorder not grown: %d buffers", rec.Workers())
	}
	regions := map[string]bool{}
	for _, s := range rec.Shares() {
		regions[s.Region] = true
	}
	for _, want := range []string{trace.RegionIngest, trace.RegionEmit, trace.RegionCluster, trace.RegionThresholdC} {
		if !regions[want] {
			t.Errorf("missing region %q in trace", want)
		}
	}
	var processed int64
	for _, p := range st.Sched.Processed {
		processed += p
	}
	if processed != int64(len(recs)) {
		t.Errorf("workers processed %d of %d", processed, len(recs))
	}
	if st.BatchLatency.N != int64(st.Batches) || st.MapLatency.N != int64(st.Batches) {
		t.Errorf("latency samples %d/%d for %d batches", st.BatchLatency.N, st.MapLatency.N, st.Batches)
	}
	if st.IngestLatency.N != int64(st.Batches) {
		t.Errorf("ingest latency samples %d for %d batches", st.IngestLatency.N, st.Batches)
	}
	if st.IngestLatency.Max <= 0 {
		t.Error("ingest latency never recorded a positive sample")
	}
	if st.Makespan <= 0 || st.Throughput() <= 0 {
		t.Errorf("makespan %v throughput %f", st.Makespan, st.Throughput())
	}
}

func TestNilArguments(t *testing.T) {
	f, _ := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Run(nil, pipeline.NewSliceSource(nil), &failEmitter{n: 1 << 30}, pipeline.Options{}); err == nil {
		t.Error("nil mapper accepted")
	}
	if _, err := pipeline.Run(m, nil, &failEmitter{n: 1 << 30}, pipeline.Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := pipeline.Run(m, pipeline.NewSliceSource(nil), nil, pipeline.Options{}); err == nil {
		t.Error("nil emitter accepted")
	}
}

func TestSliceSourceEOF(t *testing.T) {
	s := pipeline.NewSliceSource(nil)
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("empty slice source returned %v, want io.EOF", err)
	}
}

func BenchmarkStream(b *testing.B) {
	f, recs := fixture(b, 0.05)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(m, pipeline.NewSliceSource(recs), discardEmitter{}, pipeline.Options{
			Workers: 4, BatchSize: 8, Scheduler: sched.WorkStealing,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

type discardEmitter struct{}

func (discardEmitter) Emit(*seeds.ReadSeeds, []extend.Extension) error { return nil }
