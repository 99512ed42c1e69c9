package minimizer_test

// The differential check of Build: buildReference is the index builder as it
// stood before Build became one pass over reused buffers — it spells every
// path with a per-base coordinate table, deduplicates through a map of every
// hit, and sorts reflectively. It shares no code with Build but the
// Minimizers scan, so a disagreement is Build's, not a shared bug.

import (
	"fmt"
	"math/rand"
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

// referenceConfigs are the K/W pairs every input set is checked under: the
// default, a short window, Giraffe-sized k-mers, and a window longer than the
// scan's stack ring.
var referenceConfigs = []minimizer.Config{minimizer.DefaultConfig(), {K: 5, W: 3}, {K: 31, W: 11}, {K: 11, W: 40}}

func TestBuildMatchesReferenceOnWorkloads(t *testing.T) {
	for _, spec := range workload.AllSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			b, err := workload.Generate(spec.Scaled(0.001))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range referenceConfigs {
				t.Run(fmt.Sprintf("k%d-w%d", cfg.K, cfg.W), func(t *testing.T) {
					ix := checkAgainstReference(t, b.Pangenome.Graph, b.Haps, cfg)
					if ix.NumKmers() == 0 {
						t.Fatal("empty index")
					}
				})
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
	// The tests below aim at Build's grouping of path steps: a window of
	// K+W−1 = 7 bases that starts in a node reaches span = 6 bases past it.
	const span = 6
	t.Run("divergence at the window's reach", func(t *testing.T) {
		// After the shared node S, c1+c2 spell exactly span bases before the
		// haplotypes split into X or Y, so S's windows never see the split;
		// c1+c2b spell one base fewer, so S's last window ends in X or Y.
		g, n := chain(t, "GATTACA", "ACG", "TAC", "TA", "GTTCA", "CGGAT", "TTGACCA")
		s, c1, c2, c2b, x, y, tail := n[0], n[1], n[2], n[3], n[4], n[5], n[6]
		if got := g.SeqLen(c1) + g.SeqLen(c2); got != span {
			t.Fatalf("c1+c2 spell %d bases, want %d", got, span)
		}
		checkAgainstReference(t, g, [][]vgraph.NodeID{
			{s, c1, c2, x, tail}, {s, c1, c2, y, tail},
			{s, c1, c2b, x, tail}, {s, c1, c2b, y, tail},
		}, cfg)
	})
	t.Run("path ends within the window's reach", func(t *testing.T) {
		// S's windows run into c1 on every path, but the second path ends
		// fewer than span bases after S and the third ends at S itself.
		g, n := chain(t, "GATTACAG", "ACG", "TTACCA", "GGCAT")
		checkAgainstReference(t, g, [][]vgraph.NodeID{n, n[:2], n[:1], n[1:]}, cfg)
	})
	t.Run("reach through one-base nodes", func(t *testing.T) {
		// S's continuation is a run of one-base nodes; the haplotypes differ
		// in the run's last node or just past it.
		g, n := chain(t, "GATTACAG", "A", "C", "G", "T", "T", "A", "C", "G", "CCATGA")
		s, one, a, c, g2, tail := n[0], n[1:6], n[6], n[7], n[8], n[9]
		run := func(last ...vgraph.NodeID) []vgraph.NodeID {
			return append(append([]vgraph.NodeID{s}, one...), append(last, tail)...)
		}
		checkAgainstReference(t, g, [][]vgraph.NodeID{run(a), run(c), run(g2), run(a, c), run()}, cfg)
	})
	t.Run("hub with a different continuation each visit", func(t *testing.T) {
		// One node visited 300 times in a path, each time followed by its
		// own node: every visit is a group of its own. A second path visits
		// the same pairs in reverse order, so nearly all of its visits join
		// one.
		rng := rand.New(rand.NewSource(3))
		labels := []string{"ACGTTGCA"}
		for i := 0; i < 300; i++ {
			labels = append(labels, randomLabel(rng, 4+rng.Intn(6)))
		}
		g, n := chain(t, labels...)
		var fwd, rev []vgraph.NodeID
		for i := 1; i < len(n); i++ {
			fwd = append(fwd, n[0], n[i])
			rev = append(rev, n[0], n[len(n)-i])
		}
		checkAgainstReference(t, g, [][]vgraph.NodeID{fwd, rev}, cfg)
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

// randomLabel draws n bases.
func randomLabel(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[rng.Intn(4)]
	}
	return string(b)
}

// Fuzz input layout: two bytes of K and W, the node labels (2 bits of base
// per byte, 0xFE ends a label, 0xFF ends the labels), then the paths (one
// node per byte, 0xFE ends a path). A path byte under 0xF0 names one of the
// graph's nodes; one from 0xF0 up names a node past the last one, since a
// GBZ's paths are untrusted. Paths need not follow edges and may revisit.
const (
	fuzzEnd       = 0xFE
	fuzzEndLabels = 0xFF
	fuzzMissing   = 0xF0
)

// decodeFuzzBuild turns fuzz bytes, at least two, into a graph, its paths
// and a config.
func decodeFuzzBuild(t *testing.T, data []byte) (*vgraph.Graph, [][]vgraph.NodeID, minimizer.Config) {
	cfg := minimizer.Config{K: 1 + int(data[0])%31, W: 1 + int(data[1])%40}
	data = data[2:]
	g := &vgraph.Graph{}
	var label dna.Sequence
	addLabel := func() {
		if len(label) > 0 { // vgraph refuses empty labels
			if _, err := g.AddNode(label); err != nil {
				t.Fatal(err)
			}
		}
		label = nil
	}
	i := 0
	for ; i < len(data) && data[i] != fuzzEndLabels; i++ {
		if data[i] == fuzzEnd {
			addLabel()
			continue
		}
		label = append(label, dna.Base(data[i]&3))
	}
	addLabel()
	n := g.NumNodes()
	var paths [][]vgraph.NodeID
	path := []vgraph.NodeID{}
	for _, b := range data[min(i+1, len(data)):] {
		switch {
		case b == fuzzEnd:
			paths = append(paths, path)
			path = []vgraph.NodeID{}
		case b >= fuzzMissing || n == 0:
			path = append(path, vgraph.NodeID(n+1+int(b)%16))
		default:
			path = append(path, vgraph.NodeID(1+int(b)%n))
		}
	}
	return g, append(paths, path), cfg
}

// bubbleChainInput encodes a random chain of shared nodes and bubbles of one
// to three alternatives, with haplotypes that pick an alternative per bubble
// and sometimes stop early or loop back, as a fuzz input.
func bubbleChainInput(seed int64, cfg minimizer.Config) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{byte(cfg.K - 1), byte(cfg.W - 1)}
	var sites [][]byte // the node IDs (as path bytes) of each site
	next := byte(0)
	for s := 0; s < 12; s++ {
		alts := 1 + rng.Intn(3)
		var site []byte
		for a := 0; a < alts; a++ {
			n := 1 + rng.Intn(12)
			if alts > 1 {
				n = 1 + rng.Intn(5)
			}
			for j := 0; j < n; j++ {
				data = append(data, byte(rng.Intn(4)))
			}
			data = append(data, fuzzEnd)
			site = append(site, next)
			next++
		}
		sites = append(sites, site)
	}
	data[len(data)-1] = fuzzEndLabels
	haps := 2 + rng.Intn(4)
	for h := 0; h < haps; h++ {
		if h > 0 {
			data = append(data, fuzzEnd)
		}
		end := len(sites)
		if rng.Intn(3) == 0 {
			end = 1 + rng.Intn(len(sites))
		}
		for s := 0; s < end; s++ {
			data = append(data, sites[s][rng.Intn(len(sites[s]))])
			if rng.Intn(10) == 0 {
				s = max(s-3, -1)
			}
		}
	}
	return data
}

// FuzzBuild holds Build to the reference, errors included, on graphs and
// paths decoded from arbitrary bytes.
func FuzzBuild(f *testing.F) {
	for i, cfg := range []minimizer.Config{{K: 5, W: 3}, {K: 3, W: 1}, {K: 4, W: 2}, {K: 1, W: 1}, {K: 6, W: 33}, {K: 9, W: 4}} {
		f.Add(bubbleChainInput(int64(i), cfg))
	}
	f.Add([]byte{4, 2, 0, 1, 2, 3, 0, 1, fuzzEnd, 3, 3, 2, fuzzEndLabels, 0, 1, fuzzMissing, 0, fuzzEnd, 1, 0})
	f.Add([]byte{4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		g, paths, cfg := decodeFuzzBuild(t, data)
		checkAgainstReference(t, g, paths, cfg)
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
// (≈1.7 MB; the per-path build it replaced took ≈3.0 MB and the reference
// takes ≈27 MB). Spelling every path again, with its node-start table, or a
// per-base coordinate table, or a map of every hit seen would each break the
// bound.
func TestBuildAllocations(t *testing.T) {
	g, paths := yeastGraph(t)
	const budget = 2 << 20 // 2 MiB
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
