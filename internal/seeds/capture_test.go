package seeds_test

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/seeds"
	"repro/internal/workload"
)

// captureFile writes the input set's captured seeds at the given scale to a
// file, as a version-1 capture (what genworkload writes) or a version-2
// stream (what extractseeds and giraffe -capture write).
func captureFile(tb testing.TB, spec workload.Spec, scale float64, stream bool) (string, []seeds.ReadSeeds) {
	tb.Helper()
	b, err := workload.Generate(spec.Scaled(scale))
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), spec.Name+"-seeds.bin")
	if !stream {
		if err := seeds.WriteFile(path, recs); err != nil {
			tb.Fatal(err)
		}
		return path, recs
	}
	out, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer out.Close()
	w, err := seeds.NewStreamWriter(out)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, recs
}

// TestReadersMatchReferenceOnWorkloads: on the captures of all four input
// sets, in both versions, ReadFile, ReadBatch and Next read what the
// reference reader reads, which is what was captured.
func TestReadersMatchReferenceOnWorkloads(t *testing.T) {
	for _, spec := range workload.AllSpecs() {
		for _, stream := range []bool{false, true} {
			path, captured := captureFile(t, spec, 0.05, stream)
			want, err := seeds.RefReadFile(path)
			if err != nil {
				t.Fatalf("%s: reference: %v", spec.Name, err)
			}
			if d := seeds.DiffRecords(want, captured); d != "" {
				t.Fatalf("%s: reference vs captured: %s", spec.Name, d)
			}
			got, err := seeds.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: ReadFile: %v", spec.Name, err)
			}
			if d := seeds.DiffRecords(got, want); d != "" {
				t.Fatalf("%s (stream %v): ReadFile: %s", spec.Name, stream, d)
			}
			f, err := seeds.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var b seeds.Batch
			at := 0
			for {
				err := f.ReadBatch(&b, 64)
				if err != nil && err != io.EOF {
					t.Fatalf("%s: ReadBatch: %v", spec.Name, err)
				}
				if d := seeds.DiffRecords(b.Recs, want[at:min(at+64, len(want))]); d != "" {
					t.Fatalf("%s (stream %v): ReadBatch at record %d: %s", spec.Name, stream, at, d)
				}
				at += len(b.Recs)
				if err == io.EOF {
					break
				}
			}
			f.Close()
			if f, err = seeds.Open(path); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				rs, err := f.Next()
				if err != nil {
					t.Fatalf("%s: Next %d: %v", spec.Name, i, err)
				}
				if d := seeds.DiffRecords([]seeds.ReadSeeds{*rs}, want[i:i+1]); d != "" {
					t.Fatalf("%s (stream %v): Next: record %d: %s", spec.Name, stream, i, d)
				}
			}
			if _, err := f.Next(); err != io.EOF {
				t.Fatalf("%s: after the last record: %v", spec.Name, err)
			}
			f.Close()
		}
	}
}

// TestReadFileAllocations: ReadFile allocates a few dozen chunks and buffers
// for a whole capture, not a few objects per record (the reference reader
// takes 34 per record), and no more bytes in all than the reference reader.
func TestReadFileAllocations(t *testing.T) {
	path, captured := captureFile(t, workload.BYeast(), 0.5, false)
	measure := func(read func(string) ([]seeds.ReadSeeds, error)) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		recs, err := read(path)
		runtime.ReadMemStats(&after)
		if err != nil || len(recs) != len(captured) {
			t.Fatalf("read %d of %d records: %v", len(recs), len(captured), err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	refMallocs, refBytes := measure(seeds.RefReadFile)
	mallocs, bytes := measure(seeds.ReadFile)
	perRecord := float64(mallocs) / float64(len(captured))
	t.Logf("%d records: %d allocations, %d B (reference %d, %d B)", len(captured), mallocs, bytes, refMallocs, refBytes)
	if perRecord > 0.01 {
		t.Errorf("%.4f allocations per record, budget 0.01", perRecord)
	}
	if bytes > refBytes {
		t.Errorf("ReadFile allocated %d B, the reference reader %d B", bytes, refBytes)
	}
}

// benchRecords are the captured seeds of A-human at scale 20 (30 000 reads,
// a 9.3 MB capture, as cmd/bench's batch workloads load), generated once per
// run of the test binary.
var benchRecords = sync.OnceValues(func() ([]seeds.ReadSeeds, error) {
	b, err := workload.Generate(workload.AHuman().Scaled(20))
	if err != nil {
		return nil, err
	}
	return b.CaptureSeeds()
})

// benchReadFile times ReadFile on benchRecords' capture; cold runs each
// load from a collected heap, as every set-up repetition of cmd/bench does,
// so the load pays for fresh pages and for the collections its own growth
// triggers.
func benchReadFile(b *testing.B, cold bool) {
	recs, err := benchRecords()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "A-human-seeds.bin")
	if err := seeds.WriteFile(path, recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
		}
		if _, err := seeds.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFile loads the A-human capture, the input of the batch proxy:
// the decoder's own number beside cmd/bench's seeds.read_ns_per_read.
func BenchmarkReadFile(b *testing.B) { benchReadFile(b, false) }

// BenchmarkReadFileCold is BenchmarkReadFile after runtime.GC().
func BenchmarkReadFileCold(b *testing.B) { benchReadFile(b, true) }
