package gbwt

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// epochPaths is a larger path set than the diamond fixture so the frequency
// ranking has something to discriminate: node 1 is on every path, the mid
// nodes split the haplotypes.
func epochPaths() [][]NodeID {
	paths := make([][]NodeID, 0, 16)
	for i := 0; i < 16; i++ {
		p := []NodeID{1}
		if i%2 == 0 {
			p = append(p, 2)
		} else {
			p = append(p, 3)
		}
		p = append(p, 4)
		if i%4 < 2 {
			p = append(p, 5)
		} else {
			p = append(p, 6)
		}
		p = append(p, 7, NodeID(8+i%5))
		paths = append(paths, p)
	}
	return paths
}

// allNodes lists every node id visited by epochPaths.
func allNodes() []NodeID {
	return []NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
}

// TestEpochReaderEquivalence locks the correctness-by-construction claim:
// whichever layer answers (snapshot, overflow, or raw decode), the record
// contents are identical to a fresh GBWT decode — across several epochs and
// feedback states.
func TestEpochReaderEquivalence(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4, Workers: 2})
	for round := 0; round < 5; round++ {
		r := c.NewReader(round%2, 8)
		for _, v := range allNodes() {
			want := g.Record(v)
			got := r.Record(v)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d node %d: record mismatch", round, v)
			}
			// Snapshot hits serve a shared pointer; re-reading must return
			// the same contents.
			if again := r.Record(v); !reflect.DeepEqual(again, want) {
				t.Fatalf("round %d node %d: re-read mismatch", round, v)
			}
		}
		if !c.Publish() {
			t.Fatalf("round %d: publish refused", round)
		}
	}
	if got := c.Current().Epoch(); got != 5 {
		t.Errorf("epoch = %d, want 5", got)
	}
	if c.Resident() == 0 {
		t.Error("no residents after 5 epochs of feedback")
	}
	if c.Resident() > 4 {
		t.Errorf("resident %d exceeds capacity 4", c.Resident())
	}
}

// TestEpochReaderUnvisitedNode: nodes outside the GBWT return nil through
// every layer and never poison the snapshot.
func TestEpochReaderUnvisitedNode(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4})
	r := c.NewReader(0, 4)
	if rec := r.Record(999); rec != nil {
		t.Fatal("unvisited node returned a record")
	}
	c.Publish()
	for i, k := range c.Current().keys {
		if k == NodeID(999)+1 {
			t.Fatalf("unvisited node resident at slot %d", i)
		}
	}
}

// TestSharedCachePublishRanking: the builder keeps the hottest nodes when
// feedback exceeds capacity, and hit-less residents age out against fresh
// candidates.
func TestSharedCachePublishRanking(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 2, Workers: 1})
	// Feedback: node 1 hottest, node 4 second, node 7 cold.
	for i := 0; i < 100; i++ {
		c.note(1)
	}
	for i := 0; i < 50; i++ {
		c.note(4)
	}
	c.note(7)
	if !c.Publish() {
		t.Fatal("publish refused")
	}
	snap := c.Current()
	if snap.Len() != 2 {
		t.Fatalf("resident %d, want capacity 2", snap.Len())
	}
	for _, v := range []NodeID{1, 4} {
		if rec, _ := snap.find(v); rec == nil {
			t.Errorf("hot node %d not resident", v)
		}
	}
	if rec, _ := snap.find(7); rec != nil {
		t.Error("cold node 7 resident over hotter candidates")
	}

	// Next epoch: node 1 keeps hitting through a reader, node 4 goes idle
	// while nodes 2 and 3 flood the feedback. Node 1 must survive.
	r := c.NewReader(0, 0)
	for i := 0; i < 100; i++ {
		r.Record(1)
	}
	for i := 0; i < 60; i++ {
		c.note(2)
		c.note(3)
	}
	if !c.Publish() {
		t.Fatal("second publish refused")
	}
	snap = c.Current()
	if rec, _ := snap.find(1); rec == nil {
		t.Error("hit-heavy resident 1 evicted by feedback flood")
	}
	if rec, _ := snap.find(4); rec != nil {
		t.Error("idle resident 4 survived over hotter candidates")
	}
}

// TestEpochReaderOverflowFeedback: a snapshot miss that decodes through the
// overflow layer feeds the sketch, so the next epoch adopts the node.
func TestEpochReaderOverflowFeedback(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 8})
	r := c.NewReader(0, 4)
	r.Record(5)
	r.Record(5) // second access hits the private overflow: no new feedback
	st := r.Stats()
	if st.SharedHits != 0 || st.Hits != 1 || st.Misses != 1 || st.Accesses != 2 {
		t.Fatalf("pre-publish stats = %+v", st)
	}
	c.Publish()
	if rec, _ := c.Current().find(5); rec == nil {
		t.Fatal("missed node not adopted by next epoch")
	}
	r2 := c.NewReader(0, 4)
	r2.Record(5)
	st2 := r2.Stats()
	if st2.SharedHits != 1 || st2.Accesses != 1 || st2.Hits != 0 || st2.Misses != 0 {
		t.Fatalf("post-publish stats = %+v", st2)
	}
}

// TestEpochStatsInvariant: Hits+SharedHits+Misses == Accesses under a mixed
// access pattern, and the merged aggregate is order-independent however the
// per-worker stats arrive.
func TestEpochStatsInvariant(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4, Workers: 3})
	// Warm the snapshot.
	w := c.NewReader(0, 8)
	for _, v := range allNodes() {
		w.Record(v)
	}
	c.Publish()

	rng := rand.New(rand.NewSource(42))
	nodes := allNodes()
	parts := make([]CacheStats, 3)
	for i := range parts {
		r := c.NewReader(i, 2)
		for j := 0; j < 200; j++ {
			r.Record(nodes[rng.Intn(len(nodes))])
		}
		parts[i] = r.Stats()
		if got := parts[i].Hits + parts[i].SharedHits + parts[i].Misses; got != parts[i].Accesses {
			t.Fatalf("worker %d: hits %d + shared %d + misses %d != accesses %d",
				i, parts[i].Hits, parts[i].SharedHits, parts[i].Misses, parts[i].Accesses)
		}
		if parts[i].SharedHits == 0 {
			t.Fatalf("worker %d: no shared hits against a warm snapshot", i)
		}
	}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	var want CacheStats
	for _, i := range perms[0] {
		want.Add(parts[i])
	}
	for _, p := range perms[1:] {
		var got CacheStats
		for _, i := range p {
			got.Add(parts[i])
		}
		if got != want {
			t.Fatalf("order %v: merged stats %+v != %+v", p, got, want)
		}
	}
	if want.TotalHits() != want.Hits+want.SharedHits {
		t.Fatalf("TotalHits %d != %d + %d", want.TotalHits(), want.Hits, want.SharedHits)
	}
}

// TestSnapshotHitZeroAlloc asserts the lock-free snapshot hit path never
// allocates: the hotpath analyzer keeps allocating calls out of it
// statically, and this counts what the compiler made of it.
func TestSnapshotHitZeroAlloc(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4})
	c.note(1)
	c.note(4)
	c.Publish()
	r := c.NewReader(0, 0) // no overflow layer: every access is snapshot-or-decode
	if rec, _ := r.snap.find(1); rec == nil {
		t.Fatal("node 1 not resident; cannot measure the hit path")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if r.Record(1) == nil {
			t.Fatal("hit path returned nil")
		}
		r.Record(4)
	})
	if allocs != 0 {
		t.Errorf("snapshot hit path allocates %.1f per run, want 0", allocs)
	}
}

// TestSharedBiCacheInterval: MaybePublish honours the batch interval and
// publishes both directions together.
func TestSharedBiCacheInterval(t *testing.T) {
	paths := epochPaths()
	fwd := mustGBWT(t, paths)
	bi, err := FromForward(fwd, paths)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharedBi(bi, EpochConfig{Capacity: 4, Interval: 3})
	r := s.NewBiReader(0, 8)
	for _, v := range allNodes() {
		r.Fwd.Record(v)
		r.Rev.Record(v)
	}
	for tick := 1; tick <= 6; tick++ {
		_, published := s.MaybePublish()
		if want := tick%3 == 0; published != want {
			t.Fatalf("tick %d: published = %v, want %v", tick, published, want)
		}
	}
	if s.Publishes() != 2 {
		t.Fatalf("publishes = %d, want 2", s.Publishes())
	}
	if s.Fwd.Resident() == 0 || s.Rev.Resident() == 0 {
		t.Fatal("a direction has no residents after publication")
	}
}

// TestEpochRace is the publish/read stress test: readers hammer snapshot
// lookups (re-pinning the live snapshot every "batch") while a builder
// republishes concurrently and every goroutine feeds the frequency sketch.
// Two more readers pin epoch 1 once and read through it until epoch 201 is
// out: the residents they hit are carried over, by pointer, into snapshots
// the builder is assembling at that moment. Run under -race this exercises
// the immutability invariant — published tables and the records they share
// are never written, the atomic.Pointer swap is the only handoff.
func TestEpochRace(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4, Workers: 4})
	want := make(map[NodeID]*DecodedRecord)
	for _, v := range allNodes() {
		want[v] = g.Record(v)
	}
	// Epoch 1 has residents before anyone pins it.
	for _, v := range allNodes() {
		c.note(v)
	}
	c.Publish()
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	fail := func(msg string) { // first few failures are kept, nobody blocks
		select {
		case errs <- msg:
		default:
		}
	}
	var pinned sync.WaitGroup // the builder starts once both are reading
	for w := 0; w < 2; w++ {
		wg.Add(1)
		pinned.Add(1)
		go func(worker int) {
			defer wg.Done()
			r := c.NewReader(worker, 2) // pinned to epoch 1 for good
			nodes := allNodes()
			ready := false
			defer func() {
				if !ready {
					pinned.Done()
				}
			}()
			for i := 0; !stopFlag.Load(); i++ {
				if i == len(nodes) {
					ready = true
					pinned.Done()
				}
				v := nodes[i%len(nodes)]
				if got := r.Record(v); !reflect.DeepEqual(got, want[v]) {
					fail("record mismatch through a reader pinned to an old epoch")
					return
				}
			}
			if e := r.snap.Epoch(); e != 1 || r.Stats().SharedHits == 0 {
				fail("pinned reader left epoch 1 or never hit its snapshot")
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			nodes := allNodes()
			r := c.NewReader(worker, 2)
			for !stopFlag.Load() {
				r.Reset(worker) // next batch: pin the live snapshot
				for j := 0; j < 64; j++ {
					v := nodes[rng.Intn(len(nodes))]
					if got := r.Record(v); !reflect.DeepEqual(got, want[v]) {
						fail("record mismatch under concurrent publish")
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pinned.Wait()
		for i := 0; i < 200; i++ {
			c.Publish()
		}
		stopFlag.Store(true)
	}()
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if c.Publishes() != 201 {
		t.Fatalf("publishes = %d, want 201", c.Publishes())
	}
}

// TestPublishExclusion: concurrent Publish calls are CAS-elected — exactly
// one wins per round, nobody blocks.
func TestPublishExclusion(t *testing.T) {
	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4})
	c.note(1)
	const callers = 8
	var published atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if c.Publish() {
				published.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()
	if published.Load() < 1 {
		t.Fatal("no caller published")
	}
	if got := c.Publishes(); got != published.Load() {
		t.Fatalf("publish count %d != winners %d", got, published.Load())
	}
}

// hitResidents gives every resident of the live snapshot n hits through r
// (re-pinned first), so all of them rank at n in the next publication.
func hitResidents(r *CachedGBWT, n int) {
	r.Reset(0)
	for _, k := range r.snap.keys {
		for i := 0; k != 0 && i < n; i++ {
			r.Record(k - 1)
		}
	}
}

// noteTimes feeds v into the frequency sketch n times.
func noteTimes(c *SharedCache, v NodeID, n int) {
	for i := 0; i < n; i++ {
		c.note(v)
	}
}

// TestPublishCarriesResidentsOver locks the lifetime of a snapshot's records:
// decoded once when admitted, shared by pointer for as long as they stay
// ranked, collectable once they age out.
func TestPublishCarriesResidentsOver(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 59, 12)
	nodes := visitedNodes(g)[1:] // without the endmarker

	t.Run("pointer identity", func(t *testing.T) {
		c := NewShared(g, EpochConfig{Capacity: 8})
		hot := nodes[0]
		noteTimes(c, hot, 100)
		c.Publish()
		first, _ := c.Current().find(hot)
		if first == nil {
			t.Fatal("hot node not admitted")
		}
		r := c.NewReader(0, 0)
		for epoch := 2; epoch <= 6; epoch++ {
			r.Reset(0)
			for i := 0; i < 100; i++ {
				r.Record(hot)
			}
			// The rest of the snapshot turns over under it.
			for _, v := range nodes[epoch*8 : epoch*8+8] {
				noteTimes(c, v, 10)
			}
			c.Publish()
			if got, _ := c.Current().find(hot); got != first {
				t.Fatalf("epoch %d: the resident was decoded again (%p, first %p)", epoch, got, first)
			}
		}
	})

	t.Run("publish cost follows admissions", func(t *testing.T) {
		// One snapshot and its three tables, then three objects per decoded
		// record: the bound has no Capacity in it.
		const admitted = 2
		const bound = 4 + 3*admitted
		for _, capacity := range []int{8, 64} {
			c := NewShared(g, EpochConfig{Capacity: capacity})
			for _, v := range nodes[:capacity] {
				noteTimes(c, v, 10)
			}
			c.Publish()
			if c.Resident() < capacity*3/4 {
				t.Fatalf("capacity %d: only %d residents after warm-up", capacity, c.Resident())
			}
			r := c.NewReader(0, 0)
			next := capacity
			allocs := testing.AllocsPerRun(20, func() {
				hitResidents(r, 10)
				for i := 0; i < admitted; i++ {
					noteTimes(c, nodes[next%len(nodes)], 1000)
					next++
				}
				c.Publish()
			})
			if allocs > bound {
				t.Errorf("capacity %d: %.1f allocations per steady-state Publish admitting %d nodes, want at most %d",
					capacity, allocs, admitted, bound)
			}
			if rec, _ := c.Current().find(nodes[(next-1)%len(nodes)]); rec == nil {
				t.Errorf("capacity %d: the last node noted was not admitted", capacity)
			}
		}
	})

	t.Run("aged-out records are collectable", func(t *testing.T) {
		const capacity, epochs = 16, 1000
		c := NewShared(g, EpochConfig{Capacity: capacity})
		// The first resident has the largest node id: it loses every tie and
		// is among the first to age out.
		last := len(nodes) - 1
		noteTimes(c, nodes[last], 10)
		c.Publish()
		collected := make(chan struct{})
		rec, _ := c.Current().find(nodes[last])
		runtime.SetFinalizer(rec, func(*DecodedRecord) { close(collected) })
		rec = nil

		heapObjects := func() uint64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapObjects
		}
		r := c.NewReader(0, 0)
		var before uint64
		for e := 0; e < epochs; e++ {
			if e == 10 { // the snapshot is full and turning over by now
				before = heapObjects()
			}
			// A hot set that shifts by four nodes an epoch: the four newest
			// outrank the residents, the four oldest residents age out.
			hitResidents(r, 1+e%3)
			for i := 0; i < 4; i++ {
				noteTimes(c, nodes[(4*e+i)%last], 100)
			}
			c.Publish()
			if n := c.Resident(); n > capacity {
				t.Fatalf("epoch %d: %d residents, capacity %d", e, n, capacity)
			}
		}
		// 4 000 records were admitted after the first reading; had each
		// stayed reachable the heap would hold 12 000 objects more.
		after := heapObjects()
		runtime.KeepAlive(c) // measured with the live snapshot reachable
		if after > before+3*capacity+64 {
			t.Errorf("heap grew from %d to %d objects over %d epochs: aged-out records are retained",
				before, after, epochs-10)
		}
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(5 * time.Second):
				t.Error("the first epoch's record was never collected after it aged out")
			}
		}
	})
}

// TestRewoundReaderMatchesFresh: over random multi-batch access sequences, a
// reader that is Reset between batches cannot be told from one built fresh
// for each — same records, and the same CacheStats field by field, rehashes
// included — at every capacity, with caching off, and under the epoch
// discipline with publications between the batches.
func TestRewoundReaderMatchesFresh(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 61, 12)
	nodes := visitedNodes(g)
	same := func(t *testing.T, batch int, got, want *CachedGBWT, v NodeID) {
		t.Helper()
		if a, b := got.Record(v), want.Record(v); !reflect.DeepEqual(a, b) {
			t.Fatalf("batch %d node %d: rewound reader returned %+v, fresh %+v", batch, v, a, b)
		}
	}
	// access draws a batch's node sequence: a random length (so batches
	// rehash a different number of times) over a random window of the nodes.
	access := func(rng *rand.Rand) []NodeID {
		span := 1 + rng.Intn(len(nodes))
		lo := rng.Intn(len(nodes) - span + 1)
		seq := make([]NodeID, 1+rng.Intn(1500))
		for i := range seq {
			seq[i] = nodes[lo+rng.Intn(span)]
		}
		return seq
	}
	for _, capacity := range []int{0, 1, 64, 256} {
		rng := rand.New(rand.NewSource(int64(capacity) + 7))
		rewound := NewCached(g, capacity)
		shared := NewShared(g, EpochConfig{Capacity: 32, Workers: 2})
		epochRewound := shared.NewReader(0, capacity)
		for batch := 0; batch < 30; batch++ {
			seq := access(rng)

			rewound.Reset(0)
			fresh := NewCached(g, capacity)
			for _, v := range seq {
				same(t, batch, rewound, fresh, v)
			}
			if rewound.Stats() != fresh.Stats() || rewound.Capacity() != fresh.Capacity() || rewound.Len() != fresh.Len() {
				t.Fatalf("capacity %d batch %d: rewound %+v cap %d len %d, fresh %+v cap %d len %d", capacity, batch,
					rewound.Stats(), rewound.Capacity(), rewound.Len(), fresh.Stats(), fresh.Capacity(), fresh.Len())
			}

			worker := batch % 3 // 2 is out of range: both must clamp alike
			epochRewound.Reset(worker)
			epochFresh := shared.NewReader(worker, capacity)
			if epochRewound.snap != epochFresh.snap || epochRewound.row != epochFresh.row {
				t.Fatalf("capacity %d batch %d: re-pinned reader is on another snapshot or row", capacity, batch)
			}
			for _, v := range seq {
				same(t, batch, epochRewound, epochFresh, v)
			}
			if a, b := epochRewound.Stats(), epochFresh.Stats(); a != b {
				t.Fatalf("capacity %d batch %d: epoch reader rewound %+v, fresh %+v", capacity, batch, a, b)
			}
			if batch%2 == 1 {
				shared.Publish()
			}
		}
	}
}
