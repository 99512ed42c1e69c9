package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/seeds"
	"repro/internal/snarl"
	"repro/internal/vgraph"
)

// linearGraph builds a chain of nodes of the given length.
func linearGraph(t *testing.T, total, nodeLen int) (*vgraph.Graph, []vgraph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for i := 0; i < total; i += nodeLen {
		n := nodeLen
		if i+n > total {
			n = total - i
		}
		seq := make(dna.Sequence, n)
		for j := range seq {
			seq[j] = dna.Base(rng.Intn(4))
		}
		id, err := g.AddNode(seq)
		if err != nil {
			t.Fatal(err)
		}
		g.SetBackbone(id, int32(i))
		if len(ids) > 0 {
			if err := g.AddEdge(ids[len(ids)-1], id); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	return g, ids
}

// decompose builds the distance index of g.
func decompose(t testing.TB, g *vgraph.Graph) *snarl.Tree {
	t.Helper()
	tree, err := snarl.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// seedAt makes a forward seed at linear coordinate c on a chain with the
// given node length.
func seedAt(ids []vgraph.NodeID, nodeLen, c int, score float32, readOff int32) seeds.Seed {
	return seeds.Seed{
		Pos:     vgraph.Position{Node: ids[c/nodeLen], Off: int32(c % nodeLen)},
		ReadOff: readOff,
		Score:   score,
	}
}

func TestClusterSeedsEmpty(t *testing.T) {
	g, _ := linearGraph(t, 100, 10)
	tree := decompose(t, g)
	if cs := ClusterSeeds(tree, nil, DefaultParams(), nil, 0); cs != nil {
		t.Errorf("clusters of no seeds = %v", cs)
	}
}

func TestClusterSeedsTwoGroups(t *testing.T) {
	g, ids := linearGraph(t, 2000, 10)
	tree := decompose(t, g)
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 2, 0),
		seedAt(ids, 10, 130, 2, 30),
		seedAt(ids, 10, 160, 2, 60),
		// far away: separate cluster
		seedAt(ids, 10, 1500, 3, 10),
		seedAt(ids, 10, 1520, 3, 40),
	}
	cs := ClusterSeeds(tree, ss, Params{DistanceLimit: 100, CheckWindow: 4}, nil, 0)
	if len(cs) != 2 {
		t.Fatalf("%d clusters, want 2", len(cs))
	}
	var sizes []int
	for _, c := range cs {
		sizes = append(sizes, len(c.SeedIdx))
	}
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{2, 3}) {
		t.Errorf("cluster sizes = %v, want [2 3]", sizes)
	}
}

func TestClusteringIsPartition(t *testing.T) {
	g, ids := linearGraph(t, 3000, 16)
	tree := decompose(t, g)
	rng := rand.New(rand.NewSource(7))
	var ss []seeds.Seed
	for i := 0; i < 60; i++ {
		ss = append(ss, seedAt(ids, 16, rng.Intn(2900), float32(1+rng.Float64()), int32(rng.Intn(100))))
	}
	cs := ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
	seen := make([]bool, len(ss))
	for _, c := range cs {
		for _, i := range c.SeedIdx {
			if seen[i] {
				t.Fatalf("seed %d in two clusters", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("seed %d in no cluster", i)
		}
	}
}

func TestNearbySeedsShareCluster(t *testing.T) {
	g, ids := linearGraph(t, 1000, 10)
	tree := decompose(t, g)
	// Any two seeds within the limit must be in one cluster (direct check
	// window covers them).
	ss := []seeds.Seed{
		seedAt(ids, 10, 300, 1, 0),
		seedAt(ids, 10, 320, 1, 20),
	}
	cs := ClusterSeeds(tree, ss, Params{DistanceLimit: 50, CheckWindow: 4}, nil, 0)
	if len(cs) != 1 {
		t.Fatalf("%d clusters, want 1", len(cs))
	}
}

// insertionBubble is S(AC) -> INS(GGGGGG) -> E(TTTT) plus S -> E, an
// insertion bubble whose inserted node projects onto E's coordinate, with
// a seed on INS[0] and one on E[2]: 2 apart on the backbone but 6 + 2 bases
// apart in the graph.
func insertionBubble(t *testing.T) (*snarl.Tree, []seeds.Seed) {
	t.Helper()
	g := &vgraph.Graph{}
	s, _ := g.AddNode(dna.MustParse("AC"))
	ins, _ := g.AddNode(dna.MustParse("GGGGGG"))
	e, _ := g.AddNode(dna.MustParse("TTTT"))
	g.SetBackbone(s, 0)
	g.SetBackbone(ins, 2)
	g.SetBackbone(e, 2)
	for _, edge := range [][2]vgraph.NodeID{{s, ins}, {ins, e}, {s, e}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	ss := []seeds.Seed{
		{Pos: vgraph.Position{Node: ins}, Score: 1},
		{Pos: vgraph.Position{Node: e, Off: 2}, ReadOff: 8, Score: 1},
	}
	return decompose(t, g), ss
}

// TestDistanceLimitIsInclusive: the limit applies to the graph distance,
// not to the backbone coordinates, and a pair exactly at it is joined.
func TestDistanceLimitIsInclusive(t *testing.T) {
	tree, ss := insertionBubble(t)
	for _, c := range []struct{ limit, want int }{{7, 2}, {8, 1}} {
		if got := len(ClusterSeeds(tree, ss, Params{DistanceLimit: c.limit, CheckWindow: 4}, nil, 0)); got != c.want {
			t.Errorf("limit %d: %d clusters, want %d", c.limit, got, c.want)
		}
	}
}

// TestTightLimitDoesNotStick: on one Scratch, a pair kept apart by a tight
// limit is joined by a later, generous one.
func TestTightLimitDoesNotStick(t *testing.T) {
	tree, ss := insertionBubble(t)
	var scratch Scratch
	for _, c := range []struct{ limit, want int }{{5, 2}, {100, 1}, {5, 2}} {
		if got := len(scratch.ClusterSeeds(tree, ss, Params{DistanceLimit: c.limit, CheckWindow: 4}, nil, 0)); got != c.want {
			t.Errorf("limit %d: %d clusters, want %d", c.limit, got, c.want)
		}
	}
}

func TestOrientationSeparatesClusters(t *testing.T) {
	g, ids := linearGraph(t, 1000, 10)
	tree := decompose(t, g)
	fwd := seedAt(ids, 10, 300, 1, 0)
	rev := seedAt(ids, 10, 305, 1, 0)
	rev.Rev = true
	cs := ClusterSeeds(tree, []seeds.Seed{fwd, rev}, DefaultParams(), nil, 0)
	if len(cs) != 2 {
		t.Fatalf("%d clusters, want 2 (orientations must not merge)", len(cs))
	}
}

func TestPermutationInvariance(t *testing.T) {
	g, ids := linearGraph(t, 2000, 10)
	tree := decompose(t, g)
	rng := rand.New(rand.NewSource(3))
	var ss []seeds.Seed
	for i := 0; i < 30; i++ {
		ss = append(ss, seedAt(ids, 10, rng.Intn(1900), float32(1+rng.Float64()), int32(rng.Intn(90))))
	}
	canon := func(in []seeds.Seed) [][]vgraph.Position {
		cs := ClusterSeeds(tree, in, DefaultParams(), nil, 0)
		var out [][]vgraph.Position
		for _, c := range cs {
			var poss []vgraph.Position
			for _, i := range c.SeedIdx {
				poss = append(poss, in[i].Pos)
			}
			sort.Slice(poss, func(a, b int) bool {
				if poss[a].Node != poss[b].Node {
					return poss[a].Node < poss[b].Node
				}
				return poss[a].Off < poss[b].Off
			})
			out = append(out, poss)
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a][0].Node != out[b][0].Node {
				return out[a][0].Node < out[b][0].Node
			}
			return out[a][0].Off < out[b][0].Off
		})
		return out
	}
	want := canon(ss)
	for trial := 0; trial < 5; trial++ {
		shuffled := make([]seeds.Seed, len(ss))
		copy(shuffled, ss)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := canon(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: clusters depend on seed order", trial)
		}
	}
}

func TestClusterScore(t *testing.T) {
	g, ids := linearGraph(t, 500, 10)
	tree := decompose(t, g)
	// Two seeds at the same read offset: only the best counts; a third at a
	// different offset adds its own score.
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 2.0, 0),
		seedAt(ids, 10, 104, 3.0, 0),
		seedAt(ids, 10, 110, 1.5, 25),
	}
	cs := ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
	if len(cs) != 1 {
		t.Fatalf("%d clusters, want 1", len(cs))
	}
	if got, want := cs[0].Score, 4.5; got != want {
		t.Errorf("Score = %f, want %f", got, want)
	}
}

func TestClustersSortedByScore(t *testing.T) {
	g, ids := linearGraph(t, 3000, 10)
	tree := decompose(t, g)
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 1, 0),
		seedAt(ids, 10, 1000, 5, 0),
		seedAt(ids, 10, 2000, 3, 0),
	}
	cs := ClusterSeeds(tree, ss, Params{DistanceLimit: 50, CheckWindow: 4}, nil, 0)
	if len(cs) != 3 {
		t.Fatalf("%d clusters, want 3", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Score > cs[i-1].Score {
			t.Fatalf("clusters not score-sorted: %v", cs)
		}
	}
}

func TestProbeAccounting(t *testing.T) {
	g, ids := linearGraph(t, 1000, 10)
	tree := decompose(t, g)
	ss := []seeds.Seed{
		seedAt(ids, 10, 100, 1, 0),
		seedAt(ids, 10, 120, 1, 20),
	}
	h := counters.NewDefaultHierarchy()
	ClusterSeeds(tree, ss, DefaultParams(), h, 0)
	c := h.Snapshot(counters.DefaultCycleModel)
	if c.Instr == 0 {
		t.Error("probe recorded no instructions")
	}
	if c.L1DA == 0 {
		t.Error("probe recorded no accesses")
	}
}

func newUnionFind(n int) unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return unionFind{parent: p}
}

// exactClusters computes the ground-truth partition: transitive closure of
// "graph distance ≤ limit" over all same-orientation seed pairs.
func exactClusters(tree *snarl.Tree, ss []seeds.Seed, limit int) [][]int {
	uf := newUnionFind(len(ss))
	for i := 0; i < len(ss); i++ {
		for j := i + 1; j < len(ss); j++ {
			if ss[i].Rev != ss[j].Rev {
				continue
			}
			if d := tree.MinDistance(ss[i].Pos, ss[j].Pos); d != snarl.Unreachable && d <= limit {
				uf.union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := range ss {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	var out [][]int
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// TestWindowedClusteringMatchesExact cross-validates the windowed union-find
// against the all-pairs ground truth on random seed sets. On backbone-sorted
// seeds the window heuristic finds the same partition whenever cluster
// members are within the check window of a neighbour — which random
// cluster-scale seed sets satisfy.
func TestWindowedClusteringMatchesExact(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	tree := decompose(t, g)
	rng := rand.New(rand.NewSource(99))
	params := DefaultParams()
	for trial := 0; trial < 10; trial++ {
		var ss []seeds.Seed
		// A few dense clumps plus isolated seeds.
		for c := 0; c < 4; c++ {
			center := 200 + rng.Intn(3400)
			for k := 0; k < 3+rng.Intn(4); k++ {
				ss = append(ss, seedAt(ids, 16, center+rng.Intn(120), 1, int32(k*20)))
			}
		}
		for k := 0; k < 5; k++ {
			ss = append(ss, seedAt(ids, 16, rng.Intn(3900), 1, 0))
		}
		got := ClusterSeeds(tree, ss, params, nil, 0)
		var gotSets [][]int
		for _, c := range got {
			gotSets = append(gotSets, c.SeedIdx)
		}
		sort.Slice(gotSets, func(a, b int) bool { return gotSets[a][0] < gotSets[b][0] })
		want := exactClusters(tree, ss, params.DistanceLimit)
		if !reflect.DeepEqual(gotSets, want) {
			t.Fatalf("trial %d: windowed partition %v != exact %v", trial, gotSets, want)
		}
	}
}

// randomSeedSet draws clumps plus scattered seeds on both strands.
func randomSeedSet(rng *rand.Rand, ids []vgraph.NodeID, n int) []seeds.Seed {
	ss := make([]seeds.Seed, 0, n)
	for len(ss) < n {
		center := 200 + rng.Intn(3400)
		rev := rng.Intn(2) == 0
		for k := 0; k < 1+rng.Intn(6) && len(ss) < n; k++ {
			sd := seedAt(ids, 16, center+rng.Intn(150), float32(1+rng.Intn(3)), int32(rng.Intn(5)*20))
			sd.Rev = rev
			ss = append(ss, sd)
		}
	}
	return ss
}

// TestScratchMatchesFresh: one Scratch reused over seed sets that grow and
// shrink returns, field for field and in the same order, what a fresh
// scratch returns — nothing is left over from the read before.
func TestScratchMatchesFresh(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	tree := decompose(t, g)
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		ss := randomSeedSet(rng, ids, rng.Intn(40))
		got := s.ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
		want := ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d seeds): reused scratch %+v != fresh %+v", trial, len(ss), got, want)
		}
	}
}

// TestFreshResultIsCallerOwned: the package-level entry returns memory that
// later calls, on it or on any Scratch, leave alone (cmd/bench keeps
// clusters across reads).
func TestFreshResultIsCallerOwned(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	tree := decompose(t, g)
	rng := rand.New(rand.NewSource(6))
	first := randomSeedSet(rng, ids, 30)
	got := ClusterSeeds(tree, first, DefaultParams(), nil, 0)
	saved := make([]Cluster, len(got))
	for i, c := range got {
		saved[i] = Cluster{SeedIdx: append([]int(nil), c.SeedIdx...), Score: c.Score}
	}
	var s Scratch
	for trial := 0; trial < 20; trial++ {
		ss := randomSeedSet(rng, ids, 30)
		ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
		s.ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
	}
	if !reflect.DeepEqual(got, saved) {
		t.Fatalf("a later call changed an earlier result: now %+v, was %+v", got, saved)
	}
	for _, c := range got {
		if cap(c.SeedIdx) != len(c.SeedIdx) {
			t.Fatalf("SeedIdx %v has spare capacity %d: an append would run into its neighbour", c.SeedIdx, cap(c.SeedIdx))
		}
	}
}

// TestClusterAllocations: a warm Scratch clusters a read without allocating;
// the fresh-scratch entry pays for its two buffers.
func TestClusterAllocations(t *testing.T) {
	g, ids := linearGraph(t, 4000, 16)
	tree := decompose(t, g)
	ss := randomSeedSet(rand.New(rand.NewSource(7)), ids, 24)
	var s Scratch
	s.ClusterSeeds(tree, ss, DefaultParams(), nil, 0)
	if n := testing.AllocsPerRun(100, func() { s.ClusterSeeds(tree, ss, DefaultParams(), nil, 0) }); n != 0 {
		t.Errorf("warm scratch: %.1f allocations per read, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ClusterSeeds(tree, ss, DefaultParams(), nil, 0) }); n > 2 {
		t.Errorf("fresh scratch: %.1f allocations per read, want ≤ 2", n)
	}
}

func BenchmarkClusterSeeds(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for i := 0; i < 6000; i += 16 {
		seq := make(dna.Sequence, 16)
		for j := range seq {
			seq[j] = dna.Base(rng.Intn(4))
		}
		id, _ := g.AddNode(seq)
		g.SetBackbone(id, int32(i))
		if len(ids) > 0 {
			if err := g.AddEdge(ids[len(ids)-1], id); err != nil {
				b.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	tree := decompose(b, g)
	// A realistic per-read seed set: one dense clump + scattered noise.
	var ss []seeds.Seed
	center := 2000
	for k := 0; k < 12; k++ {
		ss = append(ss, seedAt(ids, 16, center+k*10, float32(1+rng.Float64()), int32(k*12)))
	}
	for k := 0; k < 6; k++ {
		ss = append(ss, seedAt(ids, 16, rng.Intn(5900), 1, int32(rng.Intn(140))))
	}
	p := DefaultParams()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ClusterSeeds(tree, ss, p, nil, 0)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ClusterSeeds(tree, ss, p, nil, 0)
		}
	})
}
