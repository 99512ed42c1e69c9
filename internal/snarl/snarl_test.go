package snarl

import (
	"container/heap"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// buildPangenome constructs a random bubble-chain pangenome.
func buildPangenome(t testing.TB, seed int64, refLen int) *vgraph.Pangenome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(dna.Sequence, refLen)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 50; pos < refLen-50; pos += 60 + rng.Intn(80) {
		switch rng.Intn(3) {
		case 0:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
		case 1:
			ins := make(dna.Sequence, 1+rng.Intn(6))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 2:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(8)})
		}
	}
	pg, err := vgraph.BuildPangenome(ref, vs, 20)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestDecomposeLinearChain(t *testing.T) {
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for _, s := range []string{"ACGT", "GG", "TTT"} {
		id, err := g.AddNode(dna.MustParse(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) > 0 {
			if err := g.AddEdge(ids[len(ids)-1], id); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumSnarls() != 0 {
		t.Errorf("linear chain has %d snarls", tree.NumSnarls())
	}
	if len(tree.Boundaries()) != 3 {
		t.Errorf("%d boundaries, want 3", len(tree.Boundaries()))
	}
	for _, id := range ids {
		if !tree.Contains(id) {
			t.Errorf("node %d missing from decomposition", id)
		}
	}
}

func TestDecomposeSingleBubble(t *testing.T) {
	// S -> {A(1), B(3)} -> E
	g := &vgraph.Graph{}
	s, _ := g.AddNode(dna.MustParse("AC"))
	a, _ := g.AddNode(dna.MustParse("G"))
	b, _ := g.AddNode(dna.MustParse("TTT"))
	e, _ := g.AddNode(dna.MustParse("CA"))
	for _, edge := range [][2]vgraph.NodeID{{s, a}, {s, b}, {a, e}, {b, e}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumSnarls() != 1 {
		t.Fatalf("%d snarls, want 1", tree.NumSnarls())
	}
	link := tree.Links()[0]
	if link.From != s || link.To != e {
		t.Errorf("snarl spans %d..%d, want %d..%d", link.From, link.To, s, e)
	}
	if link.Min != 1 || link.Max != 3 {
		t.Errorf("snarl min/max = %d/%d, want 1/3", link.Min, link.Max)
	}
}

func TestDecomposeDeletionBubble(t *testing.T) {
	// S -> {D(2), direct} -> E: min through = 0.
	g := &vgraph.Graph{}
	s, _ := g.AddNode(dna.MustParse("AC"))
	d, _ := g.AddNode(dna.MustParse("GG"))
	e, _ := g.AddNode(dna.MustParse("CA"))
	for _, edge := range [][2]vgraph.NodeID{{s, d}, {d, e}, {s, e}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	link := tree.Links()[0]
	if link.Min != 0 || link.Max != 2 {
		t.Errorf("deletion bubble min/max = %d/%d, want 0/2", link.Min, link.Max)
	}
}

func TestDecomposeRejectsMultiSource(t *testing.T) {
	g := &vgraph.Graph{}
	a, _ := g.AddNode(dna.MustParse("A"))
	b, _ := g.AddNode(dna.MustParse("C"))
	c, _ := g.AddNode(dna.MustParse("G"))
	if err := g.AddEdge(a, c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if _, err := Decompose(g); !errors.Is(err, ErrNotDecomposable) {
		t.Errorf("two-source graph: Decompose error = %v, want ErrNotDecomposable", err)
	}
}

// TestMinDistanceUnreachable: a disconnected graph is refused outright, so
// unreachability is asked of a graph that decomposes: two positions on
// different branches of one bubble share no walk, in either direction.
func TestMinDistanceUnreachable(t *testing.T) {
	disconnected := &vgraph.Graph{}
	disconnected.AddNode(dna.MustParse("AAAA"))
	disconnected.AddNode(dna.MustParse("CCCC"))
	if _, err := Decompose(disconnected); !errors.Is(err, ErrNotDecomposable) {
		t.Errorf("disconnected graph: Decompose error = %v, want ErrNotDecomposable", err)
	}

	// S -> {A(1), B(3)} -> E
	g := &vgraph.Graph{}
	s, _ := g.AddNode(dna.MustParse("AC"))
	a, _ := g.AddNode(dna.MustParse("G"))
	b, _ := g.AddNode(dna.MustParse("TTT"))
	e, _ := g.AddNode(dna.MustParse("CA"))
	for _, edge := range [][2]vgraph.NodeID{{s, a}, {s, b}, {a, e}, {b, e}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := vgraph.Position{Node: a}, vgraph.Position{Node: b}
	if d := tree.MinDistance(pa, pb); d != Unreachable {
		t.Errorf("distance between branches = %d, want Unreachable", d)
	}
	if d := tree.MinDistance(pb, pa); d != Unreachable {
		t.Errorf("reversed distance between branches = %d, want Unreachable", d)
	}
}

func TestDecomposePangenomeCountsSites(t *testing.T) {
	pg := buildPangenome(t, 1, 3000)
	tree, err := Decompose(pg.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumSnarls() != pg.NumSites() {
		t.Errorf("%d snarls for %d variant sites", tree.NumSnarls(), pg.NumSites())
	}
	// Every node belongs to the decomposition.
	for id := vgraph.NodeID(1); int(id) <= pg.NumNodes(); id++ {
		if !tree.Contains(id) {
			t.Errorf("node %d missing", id)
		}
	}
}

// TestMinDistanceMatchesDijkstra cross-validates the chain arithmetic
// against oracleMinDistance, a plain Dijkstra, on random position pairs.
func TestMinDistanceMatchesDijkstra(t *testing.T) {
	pg := buildPangenome(t, 2, 4000)
	tree, err := Decompose(pg.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := pg.NumNodes()
	for trial := 0; trial < 300; trial++ {
		a := vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(n))}
		b := vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(n))}
		a.Off = int32(rng.Intn(pg.SeqLen(a.Node)))
		b.Off = int32(rng.Intn(pg.SeqLen(b.Node)))
		want := oracleMinDistance(pg.Graph, a, b)
		got := tree.MinDistance(a, b)
		if got != want {
			t.Fatalf("trial %d: MinDistance(%v,%v) = %d, oracle %d", trial, a, b, got, want)
		}
	}
}

func TestMinDistanceSamePosition(t *testing.T) {
	pg := buildPangenome(t, 4, 1500)
	tree, err := Decompose(pg.Graph)
	if err != nil {
		t.Fatal(err)
	}
	p := vgraph.Position{Node: 1, Off: 2}
	if d := tree.MinDistance(p, p); d != 0 {
		t.Errorf("identity distance = %d", d)
	}
}

// chainGraph builds A(len 4) -> B(len 3) -> C(len 5).
func chainGraph(t *testing.T) (*Tree, []vgraph.NodeID) {
	t.Helper()
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for _, s := range []string{"ACGT", "GGG", "TTTTT"} {
		id, err := g.AddNode(dna.MustParse(s))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		if err := g.AddEdge(ids[i-1], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	return tree, ids
}

func TestMinDistanceSameNode(t *testing.T) {
	tree, ids := chainGraph(t)
	a := vgraph.Position{Node: ids[0], Off: 1}
	b := vgraph.Position{Node: ids[0], Off: 3}
	if d := tree.MinDistance(a, b); d != 2 {
		t.Errorf("same-node distance = %d, want 2", d)
	}
	// Symmetric (b to a walks forward from a).
	if d := tree.MinDistance(b, a); d != 2 {
		t.Errorf("reversed same-node distance = %d, want 2", d)
	}
	if d := tree.MinDistance(a, a); d != 0 {
		t.Errorf("identity distance = %d, want 0", d)
	}
}

func TestMinDistanceAcrossChain(t *testing.T) {
	tree, ids := chainGraph(t)
	// a = A[1], b = C[2]: bases between them along ACGT GGG TTTTT:
	// from A off 1 to C off 2 = (4-1) + 3 + 2 = 8.
	a := vgraph.Position{Node: ids[0], Off: 1}
	b := vgraph.Position{Node: ids[2], Off: 2}
	if d := tree.MinDistance(a, b); d != 8 {
		t.Errorf("chain distance = %d, want 8", d)
	}
	if d := tree.MinDistance(b, a); d != 8 {
		t.Errorf("reversed chain distance = %d, want 8", d)
	}
}

func TestMinDistancePicksShorterBranch(t *testing.T) {
	// Diamond: S -> {long(10), short(2)} -> E.
	g := &vgraph.Graph{}
	s, _ := g.AddNode(dna.MustParse("AC"))
	long, _ := g.AddNode(dna.MustParse("GGGGGGGGGG"))
	short, _ := g.AddNode(dna.MustParse("TT"))
	e, _ := g.AddNode(dna.MustParse("CA"))
	for _, edge := range [][2]vgraph.NodeID{{s, long}, {s, short}, {long, e}, {short, e}} {
		if err := g.AddEdge(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	a := vgraph.Position{Node: s, Off: 1}
	b := vgraph.Position{Node: e, Off: 0}
	// Through short branch: (2-1) + 2 + 0 = 3.
	if d := tree.MinDistance(a, b); d != 3 {
		t.Errorf("diamond distance = %d, want 3", d)
	}
}

func TestMinDistanceUnknownNode(t *testing.T) {
	pg := buildPangenome(t, 5, 1500)
	tree, err := Decompose(pg.Graph)
	if err != nil {
		t.Fatal(err)
	}
	a := vgraph.Position{Node: 1}
	bad := vgraph.Position{Node: vgraph.NodeID(pg.NumNodes() + 100)}
	if d := tree.MinDistance(a, bad); d != Unreachable {
		t.Errorf("distance to unknown node = %d", d)
	}
}

// backboneDistance is the estimate cluster sorts seeds by:
// |Backbone(b)+b.Off - (Backbone(a)+a.Off)|, both positions projected onto
// the linear reference.
func backboneDistance(g *vgraph.Graph, a, b vgraph.Position) int {
	d := int(g.Backbone(b.Node)) + int(b.Off) - int(g.Backbone(a.Node)) - int(a.Off)
	if d < 0 {
		return -d
	}
	return d
}

// TestBackboneDistanceOnPangenome: on reference nodes the backbone estimate
// is the exact distance.
func TestBackboneDistanceOnPangenome(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := make(dna.Sequence, 2000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 100; pos < 1900; pos += 200 {
		vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
	}
	p, err := vgraph.BuildPangenome(ref, vs, 32)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Decompose(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	path, err := p.HaplotypePath(make([]int, p.NumSites()))
	if err != nil {
		t.Fatal(err)
	}
	a := vgraph.Position{Node: path[0], Off: 2}
	b := vgraph.Position{Node: path[6], Off: 1}
	exact := tree.MinDistance(a, b)
	if exact == Unreachable {
		t.Fatal("reference positions unreachable")
	}
	if est := backboneDistance(p.Graph, a, b); est != exact {
		t.Errorf("backbone estimate %d != exact %d on reference nodes", est, exact)
	}
}

// TestBackboneVsExactRandomised: for local forward pairs on the reference
// path (the cluster-scale distances the mapper asks for) the exact distance
// is within a few bubbles' diameter of the backbone estimate, which is what
// lets cluster stop scanning its coordinate-sorted seeds early. Long-range
// estimates drift by the deletions skipped, which clustering never spans.
func TestBackboneVsExactRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := make(dna.Sequence, 3000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 50; pos < 2900; pos += 100 {
		switch rng.Intn(3) {
		case 0:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
		case 1:
			ins := make(dna.Sequence, 1+rng.Intn(5))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 2:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(6)})
		}
	}
	p, err := vgraph.BuildPangenome(ref, vs, 24)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Decompose(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	path, err := p.HaplotypePath(make([]int, p.NumSites()))
	if err != nil {
		t.Fatal(err)
	}
	const slack = 24
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(len(path) - 8)
		j := i + 1 + rng.Intn(6)
		a := vgraph.Position{Node: path[i], Off: int32(rng.Intn(p.SeqLen(path[i])))}
		b := vgraph.Position{Node: path[j], Off: int32(rng.Intn(p.SeqLen(path[j])))}
		exact := tree.MinDistance(a, b)
		if exact == Unreachable {
			t.Fatalf("trial %d: reference pair unreachable", trial)
		}
		est := backboneDistance(p.Graph, a, b)
		diff := est - exact
		if diff < 0 {
			diff = -diff
		}
		if diff > slack {
			t.Errorf("trial %d: |backbone %d - exact %d| > %d", trial, est, exact, slack)
		}
	}
}

func BenchmarkTreeMinDistance(b *testing.B) {
	pg := buildPangenome(b, 6, 6000)
	tree, err := Decompose(pg.Graph)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	n := pg.NumNodes()
	type pair struct{ a, b vgraph.Position }
	pairs := make([]pair, 256)
	for i := range pairs {
		p := pair{
			a: vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(n))},
			b: vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(n))},
		}
		p.a.Off = int32(rng.Intn(pg.SeqLen(p.a.Node)))
		p.b.Off = int32(rng.Intn(pg.SeqLen(p.b.Node)))
		pairs[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		tree.MinDistance(p.a, p.b)
	}
}

func BenchmarkDijkstraMinDistance(b *testing.B) {
	pg := buildPangenome(b, 6, 6000)
	rng := rand.New(rand.NewSource(7))
	n := pg.NumNodes()
	type pair struct{ a, b vgraph.Position }
	pairs := make([]pair, 256)
	for i := range pairs {
		p := pair{
			a: vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(n))},
			b: vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(n))},
		}
		p.a.Off = int32(rng.Intn(pg.SeqLen(p.a.Node)))
		p.b.Off = int32(rng.Intn(pg.SeqLen(p.b.Node)))
		pairs[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		oracleDirected(pg.Graph, p.a, p.b)
	}
}

// oracleMinDistance is an independent Dijkstra ground truth: it searches
// the graph and ignores the decomposition.
func oracleMinDistance(g *vgraph.Graph, a, b vgraph.Position) int {
	if d := oracleDirected(g, a, b); d >= 0 {
		return d
	}
	if d := oracleDirected(g, b, a); d >= 0 {
		return d
	}
	return Unreachable
}

type oracleItem struct {
	node vgraph.NodeID
	d    int32
}
type oraclePQ []oracleItem

func (q oraclePQ) Len() int            { return len(q) }
func (q oraclePQ) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q oraclePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x interface{}) { *q = append(*q, x.(oracleItem)) }
func (q *oraclePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func oracleDirected(g *vgraph.Graph, a, b vgraph.Position) int {
	if a.Node == b.Node {
		if b.Off >= a.Off {
			return int(b.Off - a.Off)
		}
		return -1
	}
	tail := int32(g.SeqLen(a.Node)) - a.Off
	best := map[vgraph.NodeID]int32{}
	q := oraclePQ{}
	for _, s := range g.Successors(a.Node) {
		heap.Push(&q, oracleItem{node: s, d: 0})
	}
	for q.Len() > 0 {
		it := heap.Pop(&q).(oracleItem)
		if prev, ok := best[it.node]; ok && prev <= it.d {
			continue
		}
		best[it.node] = it.d
		if it.node == b.Node {
			return int(tail + it.d + b.Off)
		}
		nd := it.d + int32(g.SeqLen(it.node))
		for _, s := range g.Successors(it.node) {
			if prev, ok := best[s]; !ok || nd < prev {
				heap.Push(&q, oracleItem{node: s, d: nd})
			}
		}
	}
	return -1
}
