package core_test

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/seeds"
)

// mallocsDuring counts the objects f allocates, so that a caller can keep
// fractions of a read (testing.AllocsPerRun rounds a mean down to whole
// objects). Like AllocsPerRun it runs f on one P — a goroutine that changes P
// between a sync.Pool Put and the next Get misses the pool — and once
// unmeasured, because changing GOMAXPROCS empties every pool.
func mallocsDuring(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestMapRecordAllocations locks the acceptance number: on a warm reader and
// a warm state pool, mapping a read allocates nothing per read — not per
// seed, cluster, graph node or candidate, and not per result either: what
// the caller keeps is carved from chunks a few hundred reads share, so the
// mean over the workload stays under a constant however many extensions a
// read returns.
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
	pass := func() (extensions int) {
		for i := range recs {
			extensions += len(m.MapRecord(0, reader, &recs[i], i))
		}
		return extensions
	}
	for warm := 0; warm < 4; warm++ { // pool, scratch and result chunks settle
		if pass() == 0 {
			t.Fatal("no record produced an extension")
		}
	}
	const budget = 0.05
	if got := mallocsDuring(func() { pass() }) / float64(len(recs)); got > budget {
		t.Errorf("%.3f allocations per warm MapRecord over %d reads, budget %.2f", got, len(recs), budget)
	}
}

// TestMapBatchAllocations locks the reader lifetime and the result chunks: a
// warm MapBatch — the pooled state's reader pair rewound, not rebuilt —
// allocates a chunk now and then and nothing per read or per extension,
// under the private per-batch discipline and under the epoch one, at a
// capacity small enough that every batch rehashes.
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
		const batches, budget = 10, 0.05
		got := mallocsDuring(func() {
			for i := 0; i < batches; i++ {
				m.MapBatch(0, recs, 0, out)
			}
		}) / float64(batches*len(recs))
		if got > budget {
			t.Errorf("epoch %d: %.3f allocations per read over warm MapBatches of %d reads, budget %.2f",
				opts.EpochCapacity, got, len(recs), budget)
		}
	}
}

// TestMapBatchAllocatesNothingPerBatch counts whole warm batches exactly:
// besides the results its reads keep, a batch allocates nothing — not its
// reader pair (rewound), not its state (pooled), not its request attribution.
// The reads here carry no seeds, so they keep nothing and the count is 0. One
// object more per batch is 0.013 per read on these 75 reads, under
// TestMapBatchAllocations' per-read budget; here it fails.
func TestMapBatchAllocatesNothingPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	f, recs, _ := fixture(t, 0.05)
	bare := make([]seeds.ReadSeeds, len(recs))
	for i := range recs {
		bare[i].Read = recs[i].Read
	}
	out := make([][]extend.Extension, len(bare))
	for _, opts := range []core.Options{
		{Threads: 1, CacheCapacity: 16},
		{Threads: 1, CacheCapacity: 16, EpochCapacity: 64},
	} {
		m, err := core.NewMapper(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var sb obs.SubBatch
		for _, call := range []struct {
			name  string
			batch func()
		}{
			{"MapBatch", func() { m.MapBatch(0, bare, 0, out) }},
			{"MapBatchUntil", func() {
				if _, mapped := m.MapBatchUntil(0, bare, 0, out, &stop, &sb); mapped != len(bare) {
					t.Fatalf("MapBatchUntil mapped %d of %d reads", mapped, len(bare))
				}
			}},
		} {
			const batches = 10
			got := mallocsDuring(func() {
				for i := 0; i < batches; i++ {
					call.batch()
				}
			})
			if got != 0 {
				t.Errorf("epoch %d: %v objects over %d warm %s batches of seedless reads, want 0",
					opts.EpochCapacity, got, batches, call.name)
			}
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
