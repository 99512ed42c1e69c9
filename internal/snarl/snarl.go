// Package snarl implements superbubble (snarl) decomposition of variation
// graphs and the distance index Giraffe builds over it (§II-B(c): "the
// distance index maps the minimum graph distance between seeds"). A snarl
// is a source/sink pair whose interior is reachable only through them; in
// the bubble-chain pangenomes of this reproduction, snarls are the variant
// sites and the decomposition is a single top-level chain of boundary nodes
// and snarls. The chain yields O(1) exact minimum-distance queries via
// prefix sums, with only positions interior to the same snarl needing a
// (small) local search. A graph outside that class is refused with
// ErrNotDecomposable.
package snarl

import (
	"errors"
	"fmt"

	"repro/internal/vgraph"
)

// Link is one chain element: the stretch strictly between two consecutive
// boundary nodes. A trivial link (direct edge) has Min = Max = 0 and no
// interior.
type Link struct {
	// From and To are the flanking boundary nodes.
	From, To vgraph.NodeID
	// Min and Max are the minimum and maximum interior path lengths in
	// bases (excluding both boundary nodes).
	Min, Max int32
	// Inner lists the interior nodes (empty for trivial links).
	Inner []vgraph.NodeID
}

// Tree is the decomposition of a single-source, single-sink DAG into a
// top-level chain of boundary nodes and snarls.
type Tree struct {
	g *vgraph.Graph
	// boundaries in chain order; boundaries[i] precedes boundaries[i+1].
	boundaries []vgraph.NodeID
	// links[i] sits between boundaries[i] and boundaries[i+1].
	links []Link
	// position[v] locates node v in the decomposition (dense, indexed by
	// node id; the distance query is the clustering hot path).
	position []nodePos
	// prefixMin[i] = minimum bases from the start of boundaries[0] to the
	// start of boundaries[i].
	prefixMin []int32
	// minFromLinkStart[v], for interior v: min bases from the END of the
	// link's From boundary to the START of v.
	minFromLinkStart []int32
	// minToLinkEnd[v], for interior v: min bases from the END of v to the
	// START of the link's To boundary.
	minToLinkEnd []int32
}

// nodePos locates a node in the decomposition.
type nodePos struct {
	known    bool
	boundary bool
	index    int32 // boundary index or link index
}

// ErrNotDecomposable reports a graph outside the single-source single-sink
// superbubble-chain class.
var ErrNotDecomposable = errors.New("snarl: graph is not a single chain of superbubbles")

// Decompose builds the snarl tree of g.
func Decompose(g *vgraph.Graph) (*Tree, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("snarl: empty graph")
	}
	source, sink := vgraph.Invalid, vgraph.Invalid
	for id := vgraph.NodeID(1); int(id) <= n; id++ {
		if len(g.Predecessors(id)) == 0 {
			if source != vgraph.Invalid {
				return nil, fmt.Errorf("%w: multiple sources (%d, %d)", ErrNotDecomposable, source, id)
			}
			source = id
		}
		if len(g.Successors(id)) == 0 {
			if sink != vgraph.Invalid {
				return nil, fmt.Errorf("%w: multiple sinks (%d, %d)", ErrNotDecomposable, sink, id)
			}
			sink = id
		}
	}
	if source == vgraph.Invalid || sink == vgraph.Invalid {
		return nil, fmt.Errorf("%w: missing source or sink", ErrNotDecomposable)
	}

	t := &Tree{
		g:                g,
		position:         make([]nodePos, n+1),
		minFromLinkStart: make([]int32, n+1),
		minToLinkEnd:     make([]int32, n+1),
	}
	cur := source
	t.addBoundary(cur)
	for cur != sink {
		succs := g.Successors(cur)
		if len(succs) == 0 {
			return nil, fmt.Errorf("%w: dead end at node %d before sink", ErrNotDecomposable, cur)
		}
		if len(succs) == 1 && len(g.Predecessors(succs[0])) == 1 {
			// Trivial link: direct edge to the next boundary.
			next := succs[0]
			t.links = append(t.links, Link{From: cur, To: next})
			t.addBoundary(next)
			cur = next
			continue
		}
		// Superbubble starting at cur: find its exit and interior.
		exit, inner, err := findSuperbubble(g, cur)
		if err != nil {
			return nil, err
		}
		link := Link{From: cur, To: exit, Inner: inner}
		if err := t.measureLink(&link); err != nil {
			return nil, err
		}
		li := int32(len(t.links))
		t.links = append(t.links, link)
		for _, v := range inner {
			t.position[v] = nodePos{known: true, boundary: false, index: li}
		}
		t.addBoundary(exit)
		cur = exit
	}
	// Prefix sums of minimum distances along the chain.
	t.prefixMin = make([]int32, len(t.boundaries))
	for i := 1; i < len(t.boundaries); i++ {
		prev := t.boundaries[i-1]
		t.prefixMin[i] = t.prefixMin[i-1] + int32(g.SeqLen(prev)) + t.links[i-1].Min
	}
	return t, nil
}

func (t *Tree) addBoundary(v vgraph.NodeID) {
	t.position[v] = nodePos{known: true, boundary: true, index: int32(len(t.boundaries))}
	t.boundaries = append(t.boundaries, v)
}

// findSuperbubble locates the exit of the superbubble starting at s using
// the Onodera-style frontier procedure, returning the exit and the interior
// nodes (exclusive of s and the exit).
func findSuperbubble(g *vgraph.Graph, s vgraph.NodeID) (vgraph.NodeID, []vgraph.NodeID, error) {
	seen := map[vgraph.NodeID]bool{s: true}
	visited := map[vgraph.NodeID]bool{}
	frontier := []vgraph.NodeID{s}
	var interior []vgraph.NodeID
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		visited[v] = true
		if v != s {
			interior = append(interior, v)
		}
		succs := g.Successors(v)
		if len(succs) == 0 {
			return vgraph.Invalid, nil, fmt.Errorf("%w: tip at node %d inside bubble from %d", ErrNotDecomposable, v, s)
		}
		for _, c := range succs {
			seen[c] = true
			ready := true
			for _, p := range g.Predecessors(c) {
				if !visited[p] {
					ready = false
					break
				}
			}
			if ready {
				frontier = append(frontier, c)
			}
		}
		// Exit test: exactly one frontier node and nothing else pending.
		if len(frontier) == 1 && len(seen) == len(visited)+1 {
			exit := frontier[0]
			// The exit must not re-enter the bubble (DAG: impossible) and
			// must be the only seen-but-unvisited node.
			if seen[exit] && !visited[exit] {
				return exit, interior, nil
			}
		}
	}
	return vgraph.Invalid, nil, fmt.Errorf("%w: no superbubble exit from node %d", ErrNotDecomposable, s)
}

// measureLink computes Min/Max interior path lengths and the per-node
// minimum distances used for interior queries. Interior nodes are processed
// in topological order (they form a DAG between From and To).
func (t *Tree) measureLink(l *Link) error {
	g := t.g
	inSet := make(map[vgraph.NodeID]bool, len(l.Inner))
	for _, v := range l.Inner {
		inSet[v] = true
	}
	// Topological order of the interior via Kahn restricted to the bubble.
	indeg := map[vgraph.NodeID]int{}
	for _, v := range l.Inner {
		for _, p := range g.Predecessors(v) {
			if inSet[p] {
				indeg[v]++
			}
		}
	}
	var order []vgraph.NodeID
	var queue []vgraph.NodeID
	for _, v := range l.Inner {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, c := range g.Successors(v) {
			if inSet[c] {
				indeg[c]--
				if indeg[c] == 0 {
					queue = append(queue, c)
				}
			}
		}
	}
	if len(order) != len(l.Inner) {
		return fmt.Errorf("%w: cyclic bubble interior at %d..%d", ErrNotDecomposable, l.From, l.To)
	}
	// Forward pass: min bases from the end of From to the start of v.
	const inf = int32(1 << 30)
	for _, v := range order {
		best := inf
		for _, p := range g.Predecessors(v) {
			switch {
			case p == l.From:
				if best > 0 {
					best = 0
				}
			case inSet[p]:
				if d := t.minFromLinkStart[p] + int32(g.SeqLen(p)); d < best {
					best = d
				}
			}
		}
		t.minFromLinkStart[v] = best
	}
	// Backward pass: min bases from the end of v to the start of To.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := inf
		for _, c := range g.Successors(v) {
			switch {
			case c == l.To:
				if best > 0 {
					best = 0
				}
			case inSet[c]:
				if d := t.minToLinkEnd[c] + int32(g.SeqLen(c)); d < best {
					best = d
				}
			}
		}
		t.minToLinkEnd[v] = best
	}
	// Min/Max through-paths from end-of-From to start-of-To.
	minThrough, maxThrough := inf, int32(-1)
	// Direct From→To edge: zero interior bases.
	if g.HasEdge(l.From, l.To) {
		minThrough, maxThrough = 0, 0
	}
	// DP for max as well.
	maxFrom := map[vgraph.NodeID]int32{}
	for _, v := range order {
		best := int32(-1)
		for _, p := range g.Predecessors(v) {
			switch {
			case p == l.From:
				if best < 0 {
					best = 0
				}
			case inSet[p]:
				if d := maxFrom[p] + int32(g.SeqLen(p)); d > best {
					best = d
				}
			}
		}
		maxFrom[v] = best
	}
	for _, v := range order {
		for _, c := range g.Successors(v) {
			if c == l.To {
				through := t.minFromLinkStart[v] + int32(g.SeqLen(v))
				if through < minThrough {
					minThrough = through
				}
				if mx := maxFrom[v] + int32(g.SeqLen(v)); mx > maxThrough {
					maxThrough = mx
				}
			}
		}
	}
	if minThrough == inf || maxThrough < 0 {
		return fmt.Errorf("%w: bubble %d..%d has no through path", ErrNotDecomposable, l.From, l.To)
	}
	l.Min, l.Max = minThrough, maxThrough
	return nil
}

// Graph returns the decomposed graph.
func (t *Tree) Graph() *vgraph.Graph { return t.g }
