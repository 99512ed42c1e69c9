package gbwt

import (
	"bytes"
	"slices"
	"testing"
)

// visitedNodes lists every node of g with a record.
func visitedNodes(g *GBWT) []NodeID {
	var out []NodeID
	for v := NodeID(0); v <= g.MaxNode(); v++ {
		if g.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// TestSlabRecordsMatchHeapRecords: every record a CachedGBWT hands out of its
// slab equals the uncached decode, is a capacity-clipped window (an append to
// one record cannot reach its neighbour), and stays what it was while later
// misses start new chunks.
func TestSlabRecordsMatchHeapRecords(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 41, 12)
	nodes := visitedNodes(g)
	c := NewCached(g, 16) // small: rehashes and several chunk generations
	got := make([]*DecodedRecord, len(nodes))
	for i, v := range nodes {
		got[i] = c.Record(v)
	}
	for i, v := range nodes {
		want := g.Record(v)
		if !slices.Equal(got[i].Edges, want.Edges) || !bytes.Equal(got[i].Ranks, want.Ranks) {
			t.Fatalf("node %d: slab record %+v != heap record %+v", v, got[i], want)
		}
		if cap(got[i].Edges) != len(got[i].Edges) || cap(got[i].Ranks) != len(got[i].Ranks) {
			t.Fatalf("node %d: window not capacity-clipped", v)
		}
		if again := c.Record(v); again != got[i] {
			t.Fatalf("node %d: a hit returned a different record", v)
		}
	}
}

// TestSlabMissAllocatesNothing: a miss that fits the current chunks costs no
// allocation (it used to cost three: the record, its edges, its ranks). The
// chunks are pre-sized here; in a run they grow geometrically, so all but a
// logarithmic number of misses are of this kind.
func TestSlabMissAllocatesNothing(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 43, 12)
	nodes := visitedNodes(g)
	const runs = 100
	if len(nodes) < runs+2 {
		t.Fatalf("fixture has %d nodes, need %d", len(nodes), runs+2)
	}
	c := NewCached(g, 4*len(nodes)) // no rehash on the measured path
	c.slab = recordSlab{
		recs:  make([]DecodedRecord, 0, len(nodes)),
		edges: make([]Edge, 0, 64*len(nodes)),
		ranks: make([]byte, 0, 64*len(nodes)),
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if c.Record(nodes[next]) == nil {
			t.Fatal("nil record")
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per miss into a warm chunk, want 0", allocs)
	}
	if st := c.Stats(); st.Misses != int64(next) || st.Hits != 0 {
		t.Fatalf("measured path was not all misses: %+v", st)
	}
}

// TestSlabGrowsFromSmallChunks: chunk growth is geometric from a small first
// chunk — a cache that sees a handful of records (one is built per 8-read
// request on the serving path) must not pay for a large one.
func TestSlabGrowsFromSmallChunks(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 47, 12)
	nodes := visitedNodes(g)
	c := NewCached(g, 256)
	c.Record(nodes[1])
	if n := cap(c.slab.recs); n != slabFirstRecs {
		t.Errorf("record chunk after one record holds %d, want the first-chunk size %d", n, slabFirstRecs)
	}
	for _, v := range nodes {
		c.Record(v)
	}
	if n := cap(c.slab.recs); n > 2*len(nodes) {
		t.Errorf("record chunk of %d for %d records: growth is more than geometric", n, len(nodes))
	}
}

// TestResetKeepsMemory is Reset's contract: the cache comes back empty at
// its initial capacity, and a batch replayed on it — rehashes and slab chunk
// turnovers included — allocates nothing, because the table backing, the
// spare table and the largest chunk of each kind are what Reset keeps. The
// records of the batch before are overwritten, not preserved.
func TestResetKeepsMemory(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 53, 6)
	nodes := visitedNodes(g)
	c := NewCached(g, 16)
	batch := func() {
		for _, v := range nodes {
			if c.Record(v) == nil {
				t.Fatal("nil record")
			}
		}
	}
	batch()
	grown, first := c.Capacity(), c.Stats()
	if first.Rehashes == 0 {
		t.Fatalf("fixture too small: %d nodes never outgrew 16 slots", len(nodes))
	}
	c.Reset(0)
	if c.Capacity() != 16 || c.Len() != 0 || c.Stats() != (CacheStats{}) {
		t.Fatalf("after Reset: capacity %d, %d records, stats %+v; want 16, 0, zero",
			c.Capacity(), c.Len(), c.Stats())
	}
	// Two replays settle the chunks (the second batch still doubles the one
	// the first ended on); from then on a batch costs no allocation.
	batch()
	c.Reset(0)
	batch()
	if allocs := testing.AllocsPerRun(10, func() { c.Reset(0); batch() }); allocs != 0 {
		t.Errorf("%.1f allocations per replayed batch on a reset cache, want 0", allocs)
	}
	if c.Capacity() != grown || c.Stats() != first {
		t.Errorf("replayed batch: capacity %d, stats %+v; the first one had %d, %+v",
			c.Capacity(), c.Stats(), grown, first)
	}
	for _, v := range nodes {
		got, want := c.Record(v), g.Record(v)
		if !slices.Equal(got.Edges, want.Edges) || !bytes.Equal(got.Ranks, want.Ranks) {
			t.Fatalf("node %d: record on rewound memory %+v != heap record %+v", v, got, want)
		}
	}
}
