//go:build !race

package pipeline_test

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/workload"
)

// TestCaptureRunAllocations: a pipeline run over a capture file
// (seeds.Open), on a mapper whose state pool is warm, allocates at most 0.05
// objects per read — the budget of the other entry points. The Reader fills
// the recycled batch slots (ReadBatch), so the records, names, bases and
// seeds cost a few objects per batch and per run, none per read. Counted in
// the test's own process, so not under the race detector, which allocates on
// its own account.
func TestCaptureRunAllocations(t *testing.T) {
	b, err := workload.Generate(workload.BYeast().Scaled(0.5))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seeds.bin")
	if err := seeds.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMapper(b.GBZ(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() (reads int, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := seeds.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		st, err := pipeline.RunToCSV(m, f, io.Discard, pipeline.Options{Workers: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return st.Reads, after.Mallocs - before.Mallocs
	}
	run() // the mapper's pool and result chunks settle
	reads, mallocs := run()
	if reads != len(recs) {
		t.Fatalf("mapped %d of %d reads", reads, len(recs))
	}
	perRead := float64(mallocs) / float64(reads)
	t.Logf("%d reads: %d allocations", reads, mallocs)
	if perRead > 0.05 {
		t.Errorf("%.4f allocations per read over %d reads, budget 0.05", perRead, reads)
	}
}
