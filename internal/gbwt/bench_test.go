package gbwt

import (
	"testing"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: record
// compression cost (why CachedGBWT exists), cache capacity (rehash
// amortisation), and the bidirectional synchronisation overhead.

func benchPaths(b *testing.B) (*GBWT, [][]NodeID) {
	g, paths := buildRandomHaplotypes(b, 3, 24)
	return g, paths
}

func BenchmarkRecordDecode(b *testing.B) {
	g, _ := benchPaths(b)
	// Pick a mid-graph node with visits.
	var v NodeID
	for v = 1; v <= g.MaxNode(); v++ {
		if g.NumVisits(v) > 8 {
			break
		}
	}
	// heap is GBWT.Record, what an uncached reader and the epoch builder pay;
	// slab is a CachedGBWT miss, decoding into chunks the cache owns (a fresh
	// slab every 1024 records, about a batch's worth of misses).
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec := g.Record(v); rec == nil {
				b.Fatal("nil record")
			}
		}
	})
	b.Run("slab", func(b *testing.B) {
		var slab recordSlab
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				slab = recordSlab{}
			}
			if rec := g.record(v, &slab); rec == nil {
				b.Fatal("nil record")
			}
		}
	})
}

func BenchmarkExtendCachedVsUncached(b *testing.B) {
	g, paths := benchPaths(b)
	sub := paths[0][:12]
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Find(sub)
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := NewCached(g, DefaultCacheCapacity)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Find(sub)
		}
	})
}

func BenchmarkCacheInitialCapacity(b *testing.B) {
	g, paths := benchPaths(b)
	// Touch a batch-sized working set per iteration through a fresh cache,
	// as the mapper does per batch: small initial capacities pay rehashes.
	for _, capacity := range []int{16, 256, 4096} {
		b.Run(map[int]string{16: "cc16", 256: "cc256", 4096: "cc4096"}[capacity], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := NewCached(g, capacity)
				for _, p := range paths {
					c.Find(p[:16])
				}
			}
		})
	}
}

func BenchmarkBidirectionalSync(b *testing.B) {
	_, paths := benchPaths(b)
	bi, err := NewBidirectional(paths)
	if err != nil {
		b.Fatal(err)
	}
	p := paths[0]
	b.Run("right-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := bi.Forward().FullState(p[0])
			for _, v := range p[1:12] {
				s = bi.Forward().Extend(s, v)
			}
		}
	})
	b.Run("bidirectional-right", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := bi.BiFullState(p[0])
			for _, v := range p[1:12] {
				s = bi.ExtendRight(s, v)
			}
		}
	})
	b.Run("bidirectional-left", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := bi.BiFullState(p[12])
			for j := 11; j >= 1; j-- {
				s = bi.ExtendLeft(s, p[j])
			}
		}
	})
}

func BenchmarkSerializeDeserialize(b *testing.B) {
	g, _ := benchPaths(b)
	b.Run("serialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := g.Serialize(discard{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
