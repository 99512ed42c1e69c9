package distindex

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// chainGraph builds A(len 4) -> B(len 3) -> C(len 5).
func chainGraph(t *testing.T) (*vgraph.Graph, []vgraph.NodeID) {
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
	return g, ids
}

func TestMinDistanceSameNode(t *testing.T) {
	g, ids := chainGraph(t)
	ix := New(g)
	a := vgraph.Position{Node: ids[0], Off: 1}
	b := vgraph.Position{Node: ids[0], Off: 3}
	if d := ix.MinDistance(a, b, 100); d != 2 {
		t.Errorf("same-node distance = %d, want 2", d)
	}
	// Symmetric (b to a walks forward from a).
	if d := ix.MinDistance(b, a, 100); d != 2 {
		t.Errorf("reversed same-node distance = %d, want 2", d)
	}
	if d := ix.MinDistance(a, a, 100); d != 0 {
		t.Errorf("identity distance = %d, want 0", d)
	}
}

func TestMinDistanceAcrossChain(t *testing.T) {
	g, ids := chainGraph(t)
	ix := New(g)
	// a = A[1], b = C[2]: bases between them along ACGT GGG TTTTT:
	// from A off 1 to C off 2 = (4-1) + 3 + 2 = 8.
	a := vgraph.Position{Node: ids[0], Off: 1}
	b := vgraph.Position{Node: ids[2], Off: 2}
	if d := ix.MinDistance(a, b, 100); d != 8 {
		t.Errorf("chain distance = %d, want 8", d)
	}
	// Symmetric query.
	if d := ix.MinDistance(b, a, 100); d != 8 {
		t.Errorf("reversed chain distance = %d, want 8", d)
	}
}

func TestMinDistanceLimit(t *testing.T) {
	g, ids := chainGraph(t)
	ix := New(g)
	a := vgraph.Position{Node: ids[0], Off: 0}
	b := vgraph.Position{Node: ids[2], Off: 4}
	// True distance = 4 + 3 + 4 = 11.
	if d := ix.MinDistance(a, b, 11); d != 11 {
		t.Errorf("distance = %d, want 11", d)
	}
	if d := ix.MinDistance(a, b, 10); d != Unreachable {
		t.Errorf("over-limit distance = %d, want Unreachable", d)
	}
}

func TestMinDistanceUnreachable(t *testing.T) {
	g := &vgraph.Graph{}
	a, _ := g.AddNode(dna.MustParse("AAAA"))
	b, _ := g.AddNode(dna.MustParse("CCCC"))
	ix := New(g)
	pa := vgraph.Position{Node: a, Off: 0}
	pb := vgraph.Position{Node: b, Off: 0}
	if d := ix.MinDistance(pa, pb, 1000); d != Unreachable {
		t.Errorf("disconnected distance = %d, want Unreachable", d)
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
	ix := New(g)
	a := vgraph.Position{Node: s, Off: 1}
	b := vgraph.Position{Node: e, Off: 0}
	// Through short branch: (2-1) + 2 + 0 = 3.
	if d := ix.MinDistance(a, b, 100); d != 3 {
		t.Errorf("diamond distance = %d, want 3", d)
	}
}

func TestMemoDoesNotPoisonLargerLimits(t *testing.T) {
	g, ids := chainGraph(t)
	ix := New(g)
	a := vgraph.Position{Node: ids[0], Off: 0}
	b := vgraph.Position{Node: ids[2], Off: 4}
	if d := ix.MinDistance(a, b, 5); d != Unreachable {
		t.Fatalf("distance under tight limit = %d", d)
	}
	// A second query with a generous limit must succeed despite the earlier
	// failure.
	if d := ix.MinDistance(a, b, 100); d != 11 {
		t.Errorf("post-failure distance = %d, want 11", d)
	}
}

func TestMemoHitAccounting(t *testing.T) {
	// A two-source graph defeats the snarl decomposition, exercising the
	// Dijkstra fallback and its memo.
	g := &vgraph.Graph{}
	s1, _ := g.AddNode(dna.MustParse("AAAA"))
	s2, _ := g.AddNode(dna.MustParse("CC"))
	mid, _ := g.AddNode(dna.MustParse("GGG"))
	end, _ := g.AddNode(dna.MustParse("TT"))
	for _, e := range [][2]vgraph.NodeID{{s1, mid}, {s2, mid}, {mid, end}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ix := New(g)
	if ix.HasSnarlTree() {
		t.Fatal("two-source graph unexpectedly decomposed")
	}
	a := vgraph.Position{Node: s1, Off: 0}
	b := vgraph.Position{Node: end, Off: 0}
	if d := ix.MinDistance(a, b, 100); d != 7 {
		t.Fatalf("distance = %d, want 7", d)
	}
	ix.MinDistance(a, b, 100)
	if ix.MemoHits() == 0 {
		t.Error("repeat query did not hit the memo")
	}
}

func TestSnarlTreeUsedOnChains(t *testing.T) {
	g, _ := chainGraph(t)
	if !New(g).HasSnarlTree() {
		t.Error("chain graph did not decompose")
	}
}

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
	ix := New(p.Graph)
	// Two positions on the reference haplotype: backbone distance equals the
	// exact graph distance.
	path, err := p.HaplotypePath(make([]int, p.NumSites()))
	if err != nil {
		t.Fatal(err)
	}
	a := vgraph.Position{Node: path[0], Off: 2}
	b := vgraph.Position{Node: path[6], Off: 1}
	exact := ix.MinDistance(a, b, 10000)
	if exact == Unreachable {
		t.Fatal("reference positions unreachable")
	}
	if est := ix.BackboneDistance(a, b); est != exact {
		t.Errorf("backbone estimate %d != exact %d on reference nodes", est, exact)
	}
}

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
	ix := New(p.Graph)
	path, err := p.HaplotypePath(make([]int, p.NumSites()))
	if err != nil {
		t.Fatal(err)
	}
	// For *local* forward pairs on the reference path (the cluster-scale
	// distances the mapper actually asks for), the exact distance is within
	// a few bubbles' diameter of the backbone estimate. Long-range estimates
	// drift by the deletions skipped, which clustering never spans.
	const slack = 24
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(len(path) - 8)
		j := i + 1 + rng.Intn(6)
		a := vgraph.Position{Node: path[i], Off: int32(rng.Intn(p.SeqLen(path[i])))}
		b := vgraph.Position{Node: path[j], Off: int32(rng.Intn(p.SeqLen(path[j])))}
		exact := ix.MinDistance(a, b, 10000)
		if exact == Unreachable {
			t.Fatalf("trial %d: reference pair unreachable", trial)
		}
		est := ix.BackboneDistance(a, b)
		diff := est - exact
		if diff < 0 {
			diff = -diff
		}
		if diff > slack {
			t.Errorf("trial %d: |backbone %d - exact %d| > %d", trial, est, exact, slack)
		}
	}
}
