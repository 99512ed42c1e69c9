package gbwt

// buildReference is New as it stood before New became counting passes: it
// groups each node's arrivals in a map per node keyed by predecessor, sorts
// the predecessors, and finalises nodes in Kahn order with a sorted frontier.
// It shares only encodeRecord and edgeRank with New, so a disagreement in the
// serialized bytes or the error text is New's.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func buildReference(paths [][]NodeID) (*GBWT, error) {
	if len(paths) == 0 {
		return nil, errors.New("gbwt: no paths")
	}
	maxNode := NodeID(0)
	for j, p := range paths {
		if len(p) == 0 {
			return nil, fmt.Errorf("gbwt: path %d is empty", j)
		}
		for _, v := range p {
			if v == Endmarker {
				return nil, fmt.Errorf("gbwt: path %d contains the endmarker id 0", j)
			}
			if v > maxNode {
				maxNode = v
			}
		}
	}

	n := int(maxNode) + 1 // index space including the endmarker
	// arrivals[w][pred] = visits arriving at w from pred, in pred-record
	// order. Predecessor 0 is the endmarker (path starts).
	arrivals := make([]map[NodeID][]visit, n)
	addArrival := func(w, pred NodeID, vt visit) {
		if arrivals[w] == nil {
			arrivals[w] = make(map[NodeID][]visit)
		}
		arrivals[w][pred] = append(arrivals[w][pred], vt)
	}

	// Observed adjacency and dependency edges for Kahn's algorithm.
	succOf := make([]map[NodeID]bool, n)
	indeg := make([]int, n)
	addDep := func(v, w NodeID) {
		if succOf[v] == nil {
			succOf[v] = make(map[NodeID]bool)
		}
		if !succOf[v][w] {
			succOf[v][w] = true
			indeg[w]++
		}
	}
	active := make([]bool, n)
	for _, p := range paths {
		active[p[0]] = true
		for i := 1; i < len(p); i++ {
			if p[i] == p[i-1] {
				return nil, fmt.Errorf("gbwt: path repeats node %d consecutively (self-loop)", p[i])
			}
			active[p[i]] = true
			addDep(p[i-1], p[i])
		}
	}

	// Seed: the endmarker record's body lists path starts in path order, and
	// LF from body position p arrives at the first node with offset 0.
	for j, p := range paths {
		addArrival(p[0], Endmarker, visit{path: int32(j), pos: 0})
	}

	// visitLists[v] = visits of node v in GBWT order (pred asc, pred order).
	visitLists := make([][]visit, n)
	finalize := func(w NodeID) []visit {
		groups := arrivals[w]
		preds := make([]NodeID, 0, len(groups))
		for p := range groups {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(a, b int) bool { return preds[a] < preds[b] })
		var list []visit
		for _, p := range preds {
			list = append(list, groups[p]...)
		}
		return list
	}

	// Kahn over active nodes.
	var frontier []NodeID
	for v := NodeID(1); int(v) < n; v++ {
		if active[v] && indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	processed := 0
	totalActive := 0
	for v := NodeID(1); int(v) < n; v++ {
		if active[v] {
			totalActive++
		}
	}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		processed++
		list := finalize(v)
		visitLists[v] = list
		// Propagate each visit to its successor's arrival list, in record
		// order.
		for _, vt := range list {
			p := paths[vt.path]
			if int(vt.pos)+1 < len(p) {
				addArrival(p[vt.pos+1], v, visit{path: vt.path, pos: vt.pos + 1})
			} else {
				addArrival(Endmarker, v, vt)
			}
		}
		for w := range succOf[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
		// Deterministic ordering of the frontier keeps builds reproducible.
		sort.Slice(frontier, func(a, b int) bool { return frontier[a] < frontier[b] })
	}
	if processed != totalActive {
		return nil, errors.New("gbwt: path adjacencies contain a cycle; only DAGs are supported")
	}

	// Phase 2: bodies, edges, offsets.
	g := &GBWT{
		comp:     make([][]byte, n),
		visits:   make([]int32, n),
		numPaths: len(paths),
	}
	// arrivalsBefore(w, v) = number of visits at w from preds with id < v.
	arrivalsBefore := func(w, v NodeID) int32 {
		var total int32
		for p, lst := range arrivals[w] {
			if p < v {
				total += int32(len(lst))
			}
		}
		return total
	}
	buildRecord := func(v NodeID, list []visit) (*DecodedRecord, error) {
		succs := make(map[NodeID]bool)
		for _, vt := range list {
			p := paths[vt.path]
			s := Endmarker
			if int(vt.pos)+1 < len(p) {
				s = p[vt.pos+1]
			}
			succs[s] = true
		}
		if len(succs) > maxEdges {
			return nil, fmt.Errorf("gbwt: node %d has %d successors (max %d)", v, len(succs), maxEdges)
		}
		rec := &DecodedRecord{}
		for s := range succs {
			rec.Edges = append(rec.Edges, Edge{To: s, Offset: arrivalsBefore(s, v)})
		}
		sort.Slice(rec.Edges, func(a, b int) bool { return rec.Edges[a].To < rec.Edges[b].To })
		rec.Ranks = make([]byte, len(list))
		for i, vt := range list {
			p := paths[vt.path]
			s := Endmarker
			if int(vt.pos)+1 < len(p) {
				s = p[vt.pos+1]
			}
			rec.Ranks[i] = byte(rec.edgeRank(s))
		}
		return rec, nil
	}
	for v := NodeID(1); int(v) < n; v++ {
		if !active[v] {
			continue
		}
		rec, err := buildRecord(v, visitLists[v])
		if err != nil {
			return nil, err
		}
		g.visits[v] = int32(len(visitLists[v]))
		g.comp[v] = encodeRecord(rec)
	}

	// Endmarker record: body in path order, successor = first node.
	endRec := &DecodedRecord{}
	firstNodes := make(map[NodeID]bool)
	for _, p := range paths {
		firstNodes[p[0]] = true
	}
	for s := range firstNodes {
		endRec.Edges = append(endRec.Edges, Edge{To: s, Offset: 0})
	}
	sort.Slice(endRec.Edges, func(a, b int) bool { return endRec.Edges[a].To < endRec.Edges[b].To })
	endRec.Ranks = make([]byte, len(paths))
	for j, p := range paths {
		endRec.Ranks[j] = byte(endRec.edgeRank(p[0]))
	}
	g.visits[Endmarker] = int32(len(paths))
	g.comp[Endmarker] = encodeRecord(endRec)

	// Document array: arrivals at the endmarker in (pred asc, pred order).
	groups := arrivals[Endmarker]
	preds := make([]NodeID, 0, len(groups))
	for p := range groups {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(a, b int) bool { return preds[a] < preds[b] })
	for _, p := range preds {
		for _, vt := range groups[p] {
			g.endDA = append(g.endDA, vt.path)
		}
	}
	if len(g.endDA) != len(paths) {
		return nil, fmt.Errorf("gbwt: document array has %d entries for %d paths", len(g.endDA), len(paths))
	}
	return g, nil
}

// serialized is the Serialize stream of g: what New and buildReference must
// agree on byte for byte.
func serialized(t testing.TB, g *GBWT) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsReference builds paths with New and with buildReference and fails
// unless both refuse them with the same text or both give the same bytes.
// It reports whether the paths built.
func sameAsReference(t testing.TB, paths [][]NodeID) bool {
	t.Helper()
	got, err := New(paths)
	want, refErr := buildReference(paths)
	if err != nil || refErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("New: %v\nreference: %v", err, refErr)
		}
		return false
	}
	if !bytes.Equal(serialized(t, got), serialized(t, want)) {
		t.Fatalf("New and the reference serialize %d paths differently", len(paths))
	}
	return true
}

// fanOut is one path from node 1 to each of nodes 2..n+1: node 1 has n
// successors.
func fanOut(n int) [][]NodeID {
	paths := make([][]NodeID, n)
	for i := range paths {
		paths[i] = []NodeID{1, NodeID(i + 2)}
	}
	return paths
}

// TestNewRefusesLikeReference: every refusal keeps its text, and the cycle is
// reported before an out-degree past maxEdges when a path set has both.
func TestNewRefusesLikeReference(t *testing.T) {
	for _, c := range []struct {
		name  string
		paths [][]NodeID
		want  string
	}{
		{"no paths", nil, "gbwt: no paths"},
		{"empty path", [][]NodeID{{1, 2}, {}}, "gbwt: path 1 is empty"},
		{"endmarker inside a path", [][]NodeID{{1, 2}, {3, 0, 4}}, "gbwt: path 1 contains the endmarker id 0"},
		{"empty path before a later endmarker", [][]NodeID{{}, {3, 0}}, "gbwt: path 0 is empty"},
		{"self-loop", [][]NodeID{{1, 2, 3}, {4, 5, 5, 6}}, "gbwt: path repeats node 5 consecutively (self-loop)"},
		{"cycle", [][]NodeID{{1, 2, 3}, {3, 1}}, "gbwt: path adjacencies contain a cycle; only DAGs are supported"},
		{"256 successors", fanOut(256), "gbwt: node 1 has 256 successors (max 255)"},
		{"cycle and 256 successors", append(fanOut(256), []NodeID{2, 3}, []NodeID{3, 2}),
			"gbwt: path adjacencies contain a cycle; only DAGs are supported"},
		{"self-loop and a cycle", [][]NodeID{{1, 2, 1}, {3, 3}}, "gbwt: path repeats node 3 consecutively (self-loop)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.paths)
			if err == nil || err.Error() != c.want {
				t.Fatalf("New: %v, want %q", err, c.want)
			}
			sameAsReference(t, c.paths)
		})
	}
	// At the limit both build, and the same bytes: 254 successors and the
	// endmarker make 255 edges on node 1.
	if !sameAsReference(t, append(fanOut(254), []NodeID{1})) {
		t.Fatal("255 edges refused")
	}
}

// shuffledDAGPaths draws paths through a random DAG whose topological order is
// not ID order: each path climbs a hidden rank order over the nodes, and IDs
// are a shuffle of the ranks, with gaps. Some paths repeat, some are one
// node long.
func shuffledDAGPaths(rng *rand.Rand) [][]NodeID {
	nodes := 2 + rng.Intn(60)
	ids := make([]NodeID, nodes)
	for i, v := range rng.Perm(nodes) {
		ids[i] = NodeID(1 + 2*v)
	}
	paths := make([][]NodeID, 1+rng.Intn(12))
	for j := range paths {
		if j > 0 && rng.Intn(4) == 0 {
			paths[j] = paths[rng.Intn(j)]
			continue
		}
		rank := rng.Intn(nodes)
		p := []NodeID{ids[rank]}
		for rank+1 < nodes && rng.Intn(8) != 0 {
			rank += 1 + rng.Intn(min(3, nodes-rank-1))
			p = append(p, ids[rank])
		}
		paths[j] = p
	}
	return paths
}

// TestNewMatchesReferenceOnRandomDAGs is the builder differential as a
// property: on random DAGs, forward and reversed, New gives the reference's
// bytes, and every path extracts back.
func TestNewMatchesReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 500; i++ {
		paths := shuffledDAGPaths(rng)
		for _, ps := range [][][]NodeID{paths, reversed(paths)} {
			if !sameAsReference(t, ps) {
				t.Fatalf("case %d: DAG paths refused", i)
			}
			g, _ := New(ps)
			for j, want := range ps {
				if got, err := g.ExtractPath(j); err != nil || !slices.Equal(got, want) {
					t.Fatalf("case %d: path %d extracts as %v (%v), want %v", i, j, got, err, want)
				}
			}
		}
	}
}

// reversed returns each path back to front.
func reversed(paths [][]NodeID) [][]NodeID {
	out := make([][]NodeID, len(paths))
	for i, p := range paths {
		out[i] = slices.Clone(p)
		slices.Reverse(out[i])
	}
	return out
}

// FuzzBuildGBWT holds New to the reference on paths decoded from arbitrary
// bytes: 0xFF ends a path, every other byte is a node ID, 0 the endmarker
// included. Both must refuse with the same text or serialize the same bytes.
func FuzzBuildGBWT(f *testing.F) {
	f.Add([]byte{1, 2, 4, 0xFF, 1, 3, 4, 0xFF, 2, 4})
	f.Add([]byte{5, 3, 0xFF, 3, 5})
	f.Add([]byte{1, 1})
	f.Add([]byte{1, 0, 2})
	f.Add([]byte{0xFF})
	f.Add([]byte{9, 7, 5, 3, 1, 0xFF, 7, 3, 0xFF, 9, 5, 1, 0xFF, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var paths [][]NodeID
		p := []NodeID{}
		for _, b := range data {
			if b == 0xFF {
				paths = append(paths, p)
				p = []NodeID{}
				continue
			}
			p = append(p, NodeID(b))
		}
		if len(data) > 0 {
			paths = append(paths, p)
		}
		sameAsReference(t, paths)
	})
}
