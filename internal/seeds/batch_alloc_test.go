//go:build !race

package seeds

import (
	"bytes"
	"testing"

	"repro/internal/fastq"
	"repro/internal/minimizer"
)

// TestBatchRefillAllocations: a warm refill of 42 records from FASTQ
// allocates nothing per read, exactly three objects a batch: the string
// under every name, and the message and wrapper of the error the minimizer
// scan returns for the read too short to seed. The race detector adds
// allocations of its own, so this runs without it.
func TestBatchRefillAllocations(t *testing.T) {
	cfg := minimizer.Config{K: 13, W: 7}
	ref := randomSeq(3000, 9)
	ix := chainIndex(t, ref, cfg)
	text, want := batchWorkload(t, ix, ref, 100)
	const runs = 50
	// One scanner over every run's reads: its buffer is not the batch's.
	sc := fastq.NewScanner(bytes.NewReader(bytes.Repeat(text, runs+1)))
	var b Batch
	got := testing.AllocsPerRun(runs, func() {
		b.Reset()
		for range want {
			read, err := b.Scan(sc)
			if err == nil {
				err = b.Add(ix, read)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		b.Seal()
	})
	if got != 3 {
		t.Errorf("warm refill of %d records: %v allocations, want 3", len(want), got)
	}
}
