//go:build !race

package giraffe

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestStreamAllocatesPerBatch locks what the recycled slots are for: a
// pipeline run over an ExtractSource, on a mapper whose state pool is warm,
// allocates a few objects per batch — the completion channel, the string
// under the batch's names, a result chunk now and then — and a fixed number
// per run (the pool, the slots and their slabs growing to size), however
// many reads flow through. Counted in the test's own process, so not under
// the race detector, which allocates on its own account.
func TestStreamAllocatesPerBatch(t *testing.T) {
	b, path := streamFixture(t, workload.BYeast().Scaled(0.2))
	m, err := core.NewMapper(b.GBZ(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const batchSize, perBatch, perRun = 64, 3, 600
	run := func() (reads int, mallocs uint64) {
		src, err := OpenExtractSource(b.MinIx, path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := pipeline.RunToCSV(m, src, io.Discard, pipeline.Options{Workers: 2, BatchSize: batchSize})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return st.Reads, after.Mallocs - before.Mallocs
	}
	run()
	reads, mallocs := run()
	batches := (reads + batchSize - 1) / batchSize
	if reads != len(b.Reads) || batches < 100 {
		t.Fatalf("streamed %d of %d reads in %d batches", reads, len(b.Reads), batches)
	}
	if budget := uint64(perBatch*batches + perRun); mallocs > budget {
		t.Errorf("%d allocations for %d reads in %d batches, budget %d·batches + %d = %d",
			mallocs, reads, batches, perBatch, perRun, budget)
	}
}
