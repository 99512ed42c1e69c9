package gbwt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDAGPaths derives a small random DAG path set from a seed: node ids
// are strictly increasing within each path, which guarantees the adjacency
// DAG property the builder requires.
func randomDAGPaths(seed int64) [][]NodeID {
	rng := rand.New(rand.NewSource(seed))
	nPaths := 1 + rng.Intn(6)
	maxNode := 4 + rng.Intn(20)
	paths := make([][]NodeID, nPaths)
	for i := range paths {
		// Random increasing subset of 1..maxNode.
		var p []NodeID
		for v := 1; v <= maxNode; v++ {
			if rng.Intn(2) == 0 {
				p = append(p, NodeID(v))
			}
		}
		if len(p) == 0 {
			p = []NodeID{NodeID(1 + rng.Intn(maxNode))}
		}
		paths[i] = p
	}
	return paths
}

// TestQuickBuildRoundTrip property-checks that every inserted path is
// extractable, findable, and located, over arbitrary DAG path sets.
func TestQuickBuildRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		paths := randomDAGPaths(seed)
		g, err := New(paths)
		if err != nil {
			return false
		}
		for i, p := range paths {
			got, err := g.ExtractPath(i)
			if err != nil || len(got) != len(p) {
				return false
			}
			for j := range p {
				if got[j] != p[j] {
					return false
				}
			}
			if g.Find(p).Empty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickFindMatchesNaive property-checks subpath counts against the
// brute force over random path sets and random query windows.
func TestQuickFindMatchesNaive(t *testing.T) {
	f := func(seed int64, pick uint8, start, width uint8) bool {
		paths := randomDAGPaths(seed)
		g, err := New(paths)
		if err != nil {
			return false
		}
		p := paths[int(pick)%len(paths)]
		s := int(start) % len(p)
		w := 1 + int(width)%4
		if s+w > len(p) {
			w = len(p) - s
		}
		sub := p[s : s+w]
		return g.Find(sub).Size() == naiveCount(paths, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickSerializePreservesQueries property-checks that serialization
// round trips preserve Find results.
func TestQuickSerializePreservesQueries(t *testing.T) {
	f := func(seed int64) bool {
		paths := randomDAGPaths(seed)
		g, err := New(paths)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := g.Serialize(&buf); err != nil {
			return false
		}
		g2, err := Deserialize(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for _, p := range paths {
			if g.Find(p).Size() != g2.Find(p).Size() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickBidirectionalAgreement property-checks bidirectional search
// against forward search over arbitrary path sets.
func TestQuickBidirectionalAgreement(t *testing.T) {
	f := func(seed int64, pick, start uint8) bool {
		paths := randomDAGPaths(seed)
		bi, err := NewBidirectional(paths)
		if err != nil {
			return false
		}
		p := paths[int(pick)%len(paths)]
		s := int(start) % len(p)
		w := len(p) - s
		if w > 5 {
			w = 5
		}
		sub := p[s : s+w]
		return bi.FindBi(sub).Size() == bi.Forward().Find(sub).Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
