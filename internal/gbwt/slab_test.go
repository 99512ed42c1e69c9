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

// TestResetDropsSlab: Reset lets go of the slab with the entries, and a
// record handed out before it stays valid and unchanged afterwards.
func TestResetDropsSlab(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 53, 6)
	nodes := visitedNodes(g)
	c := NewCached(g, 64)
	before := c.Record(nodes[1])
	want := g.Record(nodes[1])
	c.Reset()
	if c.slab.recs != nil || c.slab.edges != nil || c.slab.ranks != nil {
		t.Error("Reset kept the slab")
	}
	for _, v := range nodes {
		c.Record(v)
	}
	if !slices.Equal(before.Edges, want.Edges) || !bytes.Equal(before.Ranks, want.Ranks) {
		t.Errorf("record handed out before Reset changed: %+v, want %+v", before, want)
	}
}
