package minimizer_test

// The differential check of Build: buildReference is the index builder as it
// stood before Build became one pass over reused buffers — it spells every
// path with a per-base coordinate table, deduplicates through a map of every
// hit, and sorts reflectively. It shares no code with Build but the
// Minimizers scan, so a disagreement is Build's, not a shared bug.

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/minimizer"
	"repro/internal/vgraph"
	"repro/internal/workload"
)

type refIndex struct {
	hits    map[uint64][]minimizer.Occurrence
	dropped int
}

func buildReference(g *vgraph.Graph, paths [][]vgraph.NodeID, cfg minimizer.Config) (*refIndex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := &refIndex{hits: make(map[uint64][]minimizer.Occurrence)}
	type key struct {
		kmer uint64
		pos  vgraph.Position
		rev  bool
	}
	seen := make(map[key]bool)
	for pi, path := range paths {
		// Spell the path and remember, for each spelled offset, its node and
		// within-node offset.
		var seq dna.Sequence
		type coord struct {
			node vgraph.NodeID
			off  int32
		}
		var coords []coord
		for _, id := range path {
			if !g.Has(id) {
				return nil, fmt.Errorf("minimizer: path %d references missing node %d", pi, id)
			}
			label := g.Seq(id)
			for off := range label {
				coords = append(coords, coord{node: id, off: int32(off)})
			}
			seq = append(seq, label...)
		}
		mins, err := minimizer.Minimizers(seq, cfg)
		if err != nil {
			// Paths shorter than a window contribute nothing.
			continue
		}
		for _, m := range mins {
			c := coords[m.Off]
			pos := vgraph.Position{Node: c.node, Off: c.off}
			k := key{kmer: m.Kmer, pos: pos, rev: m.Rev}
			if seen[k] {
				continue
			}
			seen[k] = true
			ix.hits[m.Kmer] = append(ix.hits[m.Kmer], minimizer.Occurrence{Pos: pos, Rev: m.Rev})
		}
	}
	// Apply the hard hit cap and sort occurrence lists for determinism.
	for kmer, occs := range ix.hits {
		if len(occs) > minimizer.HardHitCap {
			delete(ix.hits, kmer)
			ix.dropped++
			continue
		}
		sort.Slice(occs, func(a, b int) bool {
			if occs[a].Pos.Node != occs[b].Pos.Node {
				return occs[a].Pos.Node < occs[b].Pos.Node
			}
			if occs[a].Pos.Off != occs[b].Pos.Off {
				return occs[a].Pos.Off < occs[b].Pos.Off
			}
			return !occs[a].Rev && occs[b].Rev
		})
	}
	return ix, nil
}

// checkAgainstReference builds both indexes and requires the same error, or
// the same k-mers with the same occurrences in the same order and the same
// dropped count. It returns Build's index.
func checkAgainstReference(t *testing.T, g *vgraph.Graph, paths [][]vgraph.NodeID, cfg minimizer.Config) *minimizer.Index {
	t.Helper()
	ix, err := minimizer.Build(g, paths, cfg)
	ref, refErr := buildReference(g, paths, cfg)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("Build error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if ix.Dropped() != ref.dropped {
		t.Errorf("Dropped() = %d, reference %d", ix.Dropped(), ref.dropped)
	}
	if ix.NumKmers() != len(ref.hits) {
		t.Fatalf("%d k-mers, reference %d", ix.NumKmers(), len(ref.hits))
	}
	for kmer, want := range ref.hits {
		if got := ix.Hits(kmer); !reflect.DeepEqual(got, want) {
			t.Fatalf("k-mer %s: occurrences %v, reference %v", minimizer.KmerString(kmer, cfg.K), got, want)
		}
	}
	return ix
}

func TestBuildMatchesReferenceOnWorkloads(t *testing.T) {
	for _, spec := range []workload.Spec{workload.AHuman(), workload.BYeast()} {
		t.Run(spec.Name, func(t *testing.T) {
			b, err := workload.Generate(spec.Scaled(0.001))
			if err != nil {
				t.Fatal(err)
			}
			ix := checkAgainstReference(t, b.Pangenome.Graph, b.Haps, minimizer.DefaultConfig())
			if ix.NumKmers() == 0 {
				t.Fatal("empty index")
			}
		})
	}
}

// chain builds a linear graph with one node per label and returns its path.
func chain(t *testing.T, labels ...string) (*vgraph.Graph, []vgraph.NodeID) {
	t.Helper()
	g := &vgraph.Graph{}
	var path []vgraph.NodeID
	for _, l := range labels {
		seq, err := dna.Parse(l)
		if err != nil {
			t.Fatal(err)
		}
		id, err := g.AddNode(seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) > 0 {
			if err := g.AddEdge(path[len(path)-1], id); err != nil {
				t.Fatal(err)
			}
		}
		path = append(path, id)
	}
	return g, path
}

func TestBuildMatchesReferenceOnHandBuiltGraphs(t *testing.T) {
	cfg := minimizer.Config{K: 5, W: 3}
	t.Run("past hit cap", func(t *testing.T) {
		// One repeat unit per node: every node spells the same k-mers, so
		// each lands at more than HardHitCap distinct positions, while the
		// unique flank keeps some k-mers under the cap.
		labels := []string{"GATTACAGGCTTAACG"}
		for i := 0; i < minimizer.HardHitCap+40; i++ {
			labels = append(labels, "ACGTTGCA")
		}
		g, path := chain(t, labels...)
		ix := checkAgainstReference(t, g, [][]vgraph.NodeID{path, path}, cfg)
		if ix.Dropped() == 0 {
			t.Fatal("no k-mer passed the hit cap")
		}
		if ix.NumKmers() == 0 {
			t.Fatal("every k-mer dropped")
		}
	})
	t.Run("one-base labels", func(t *testing.T) {
		// vgraph refuses empty labels, so the closest a path comes to a node
		// that spells nothing is a run of one-base nodes: one k-mer spans
		// several of them, and the node cursor steps over more than one node
		// between two minimizers.
		g, path := chain(t, "A", "C", "GTACGGT", "T", "T", "G", "CAGCATGA", "C", "C", "ATGACG", "T")
		checkAgainstReference(t, g, [][]vgraph.NodeID{path, path[1:7], path[3:], path[:3]}, cfg)
	})
	t.Run("path shorter than a window", func(t *testing.T) {
		g, path := chain(t, "ACG", "TA", "CGGATCCATGCAGT")
		// path[:2] spells 5 bases, fewer than k+w-1 = 7.
		checkAgainstReference(t, g, [][]vgraph.NodeID{path[:2], path, path[:1]}, cfg)
	})
	t.Run("missing node", func(t *testing.T) {
		g, path := chain(t, "ACGTACGTTGCA", "GGCATTAC")
		_, err := minimizer.Build(g, [][]vgraph.NodeID{path, {path[0], 99, path[1]}}, cfg)
		if err == nil || !strings.Contains(err.Error(), "path 1 references missing node 99") {
			t.Fatalf("error %v", err)
		}
		checkAgainstReference(t, g, [][]vgraph.NodeID{path, {path[0], 99, path[1]}}, cfg)
	})
}

// yeastGraph is the B-yeast pangenome with its haplotype paths.
func yeastGraph(tb testing.TB) (*vgraph.Graph, [][]vgraph.NodeID) {
	tb.Helper()
	b, err := workload.Generate(workload.BYeast().Scaled(0.001))
	if err != nil {
		tb.Fatal(err)
	}
	return b.Pangenome.Graph, b.Haps
}

// TestBuildAllocations bounds what one Build allocates on the B-yeast graph
// (≈3.0 MB; the reference builder takes ≈27 MB). A per-base coordinate table
// re-grown per path (≈15 MB in all) or a map of every hit seen (≈4.3 MB)
// would each break the bound.
func TestBuildAllocations(t *testing.T) {
	g, paths := yeastGraph(t)
	const budget = 7 << 19 // 3.5 MiB
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := minimizer.Build(g, paths, minimizer.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build allocated %d B", got)
	if got > budget {
		t.Fatalf("Build allocated %d B, budget %d B", got, budget)
	}
}

func BenchmarkBuild(b *testing.B) {
	spec, err := workload.Generate(workload.AHuman().Scaled(0.001))
	if err != nil {
		b.Fatal(err)
	}
	g, paths, cfg := spec.Pangenome.Graph, spec.Haps, minimizer.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minimizer.Build(g, paths, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
