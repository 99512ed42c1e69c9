package snarl

import (
	"repro/internal/vgraph"
)

// Unreachable is returned when no forward walk connects two positions.
const Unreachable = -1

// chainOf returns the boundary index at-or-before node v's chain location,
// plus whether v itself is a boundary and its link index otherwise.
func (t *Tree) chainOf(v vgraph.NodeID) (nodePos, bool) {
	if int(v) >= len(t.position) {
		return nodePos{}, false
	}
	pos := t.position[v]
	return pos, pos.known
}

// MinDistance returns the minimum number of bases separating positions a
// and b along a forward walk in either direction, or Unreachable. Results
// are exact for the decomposed chain: positions in different chain elements
// combine per-element minima via prefix sums; positions inside the same
// snarl fall back to a local search over the (small) interior.
func (t *Tree) MinDistance(a, b vgraph.Position) int {
	if d := t.directed(a, b); d != Unreachable {
		return d
	}
	return t.directed(b, a)
}

// directed computes the forward distance a→b.
func (t *Tree) directed(a, b vgraph.Position) int {
	pa, okA := t.chainOf(a.Node)
	pb, okB := t.chainOf(b.Node)
	if !okA || !okB {
		return Unreachable
	}
	if a.Node == b.Node {
		if b.Off >= a.Off {
			return int(b.Off - a.Off)
		}
		return Unreachable
	}
	// Same-snarl interiors need the local search.
	if !pa.boundary && !pb.boundary && pa.index == pb.index {
		return t.interiorDistance(&t.links[pa.index], a, b)
	}
	// Order on the chain: compute each position's element span.
	aAfter := t.elementAfter(pa)   // boundary index from which a's tail exits
	bBefore := t.elementBefore(pb) // boundary index through which b is entered
	if aAfter > bBefore {
		return Unreachable // b lies before a on the chain
	}
	// tail(a): bases from a (exclusive of a's base? inclusive convention:
	// distance counts bases strictly between, so from position a, moving to
	// the start of the next element) …
	tail, ok := t.tailToBoundary(a, pa)
	if !ok {
		return Unreachable
	}
	head, ok := t.headFromBoundary(b, pb)
	if !ok {
		return Unreachable
	}
	// Chain distance between boundary aAfter's start and bBefore's start.
	between := int(t.prefixMin[bBefore] - t.prefixMin[aAfter])
	return tail + between + head
}

// elementAfter returns the index of the first boundary at-or-after the
// position's exit point.
func (t *Tree) elementAfter(p nodePos) int {
	if p.boundary {
		return int(p.index)
	}
	return int(p.index) + 1 // interior of link i exits at boundary i+1
}

// elementBefore returns the index of the boundary through which the
// position is reached.
func (t *Tree) elementBefore(p nodePos) int {
	if p.boundary {
		return int(p.index)
	}
	return int(p.index) // interior of link i is entered from boundary i
}

// tailToBoundary returns the min bases from position a to the START of
// boundary elementAfter(pa).
func (t *Tree) tailToBoundary(a vgraph.Position, pa nodePos) (int, bool) {
	if pa.boundary {
		// Distance from a to the start of its own boundary node's... the
		// element is the node itself: zero bases consumed before its start
		// minus the offset already inside. Conceptually the caller combines
		// with prefix sums anchored at the node start, so subtract the
		// offset.
		return -int(a.Off), true
	}
	// a → end of its node → min to link end (start of To boundary).
	rest := int32(t.g.SeqLen(a.Node)) - a.Off
	return int(rest + t.minToLinkEnd[a.Node]), true
}

// headFromBoundary returns the min bases from the START of boundary
// elementBefore(pb) to position b.
func (t *Tree) headFromBoundary(b vgraph.Position, pb nodePos) (int, bool) {
	if pb.boundary {
		return int(b.Off), true
	}
	l := &t.links[pb.index]
	return int(int32(t.g.SeqLen(l.From)) + t.minFromLinkStart[b.Node] + b.Off), true
}

// interiorDistance handles two positions inside the same snarl with a
// bounded BFS over the (small) interior; allocation-free via linear scans
// over the inner node list.
func (t *Tree) interiorDistance(l *Link, a, b vgraph.Position) int {
	g := t.g
	innerIdx := func(v vgraph.NodeID) int {
		for i, u := range l.Inner {
			if u == v {
				return i
			}
		}
		return -1
	}
	type item struct {
		node vgraph.NodeID
		d    int32
	}
	var bestArr [16]int32
	best := bestArr[:0]
	for range l.Inner {
		best = append(best, int32(-1))
	}
	var queueArr [16]item
	queue := queueArr[:0]
	start := int32(g.SeqLen(a.Node)) - a.Off
	for _, c := range g.Successors(a.Node) {
		if innerIdx(c) >= 0 {
			queue = append(queue, item{node: c, d: start})
		}
	}
	res := int32(-1)
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		ii := innerIdx(it.node)
		if prev := best[ii]; prev >= 0 && prev <= it.d {
			continue
		}
		best[ii] = it.d
		if it.node == b.Node {
			d := it.d + b.Off
			if res < 0 || d < res {
				res = d
			}
			continue
		}
		nd := it.d + int32(g.SeqLen(it.node))
		for _, c := range g.Successors(it.node) {
			if innerIdx(c) >= 0 {
				queue = append(queue, item{node: c, d: nd})
			}
		}
	}
	if res < 0 {
		return Unreachable
	}
	return int(res)
}
