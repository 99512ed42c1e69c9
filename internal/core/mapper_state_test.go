package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbwt"
)

// TestMapRecordAllocations locks the tentpole's acceptance number: on a warm
// reader and a warm state pool, mapping a read allocates what the caller
// keeps — the result slice, then a Path and a Mismatches per extension — and
// one object of slack, nothing per seed, cluster, graph node or candidate.
func TestMapRecordAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	f, recs, _ := fixture(t, 0.05)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reader := m.NewReader(0)
	for i := range recs {
		m.MapRecord(0, reader, &recs[i], i)
	}
	checked := 0
	for i := range recs[:min(len(recs), 40)] {
		exts := m.MapRecord(0, reader, &recs[i], i)
		if len(exts) == 0 {
			continue
		}
		budget := float64(2 + 2*len(exts))
		if got := testing.AllocsPerRun(20, func() { m.MapRecord(0, reader, &recs[i], i) }); got > budget {
			t.Errorf("record %d: %.1f allocations for %d extensions, budget %.0f", i, got, len(exts), budget)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no record produced an extension")
	}
}

// TestMapBatchAllocations locks the reader lifetime: a warm MapBatch — the
// pooled state's reader pair rewound, not rebuilt — allocates only the
// extensions it returns (a result slice per mapped read, a Path per
// extension and a Mismatches where there are any), under the private per-batch discipline and under
// the epoch one, at a capacity small enough that every batch rehashes.
func TestMapBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	f, recs, _ := fixture(t, 0.05)
	for _, opts := range []core.Options{
		{Threads: 1, CacheCapacity: 16},
		{Threads: 1, CacheCapacity: 16, EpochCapacity: 64},
	} {
		m, err := core.NewMapper(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]extend.Extension, len(recs))
		var cs gbwt.CacheStats
		for warm := 0; warm < 4; warm++ { // tables, spare tables and slab chunks settle
			cs = m.MapBatch(0, recs, 0, out)
		}
		if cs.Rehashes == 0 {
			t.Fatalf("epoch %d: the batch never rehashed; the spare table is not exercised", opts.EpochCapacity)
		}
		budget := 2.0 // slack
		for _, exts := range out {
			if len(exts) > 0 {
				budget++
			}
			for _, e := range exts {
				budget++ // Path
				if len(e.Mismatches) > 0 {
					budget++
				}
			}
		}
		if got := testing.AllocsPerRun(10, func() { m.MapBatch(0, recs, 0, out) }); got > budget {
			t.Errorf("epoch %d: %.1f allocations per warm MapBatch of %d reads, budget %.0f (what it returns)",
				opts.EpochCapacity, got, len(recs), budget)
		}
	}
}

// TestConcurrentCallsShareNoState maps the same records from four goroutines
// through one Mapper — every goroutine passing worker index 0, the way
// pipeline workers beyond Options.Threads collapse onto one shared-cache row
// — and requires each to get the single-thread result: a pooled state is
// never in two calls at once, and nothing a call returned is touched by the
// calls that follow it. Run under -race by `make race`.
func TestConcurrentCallsShareNoState(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	for _, opts := range []core.Options{{Threads: 1}, {Threads: 1, EpochCapacity: 64}} {
		m, err := core.NewMapper(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]extend.Extension, len(recs))
		m.MapBatch(0, recs, 0, want)

		const goroutines = 4
		got := make([][][]extend.Extension, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			got[g] = make([][]extend.Extension, len(recs))
			wg.Add(1)
			go func(out [][]extend.Extension) {
				defer wg.Done()
				// Small batches, then single records: both entry points take
				// and return a state many times over.
				half := len(recs) / 2
				for lo := 0; lo < half; lo += 4 {
					hi := min(lo+4, half)
					m.MapBatch(0, recs[lo:hi], lo, out[lo:hi])
					m.TryPublishEpoch(0)
				}
				reader := m.NewReader(0)
				for i := half; i < len(recs); i++ {
					out[i] = m.MapRecord(0, reader, &recs[i], i)
				}
			}(got[g])
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want) {
				t.Fatalf("epoch %d: goroutine %d's results differ from the single-thread pass", opts.EpochCapacity, g)
			}
		}
	}
}
