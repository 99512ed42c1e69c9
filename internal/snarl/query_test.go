package snarl

import "repro/internal/vgraph"

// The chain census below is what the decomposition tests check a Tree by.
// No deliverable route reads it, so it lives with them.

// IsSnarl reports whether the link has interior structure.
func (l *Link) IsSnarl() bool { return len(l.Inner) > 0 }

// NumSnarls returns the number of non-trivial chain elements.
func (t *Tree) NumSnarls() int {
	n := 0
	for i := range t.links {
		if t.links[i].IsSnarl() {
			n++
		}
	}
	return n
}

// Links returns the chain elements in order. The slice aliases tree storage.
func (t *Tree) Links() []Link { return t.links }

// Boundaries returns the chain's boundary nodes in order.
func (t *Tree) Boundaries() []vgraph.NodeID { return t.boundaries }

// Contains reports whether the decomposition covers node v.
func (t *Tree) Contains(v vgraph.NodeID) bool {
	return int(v) < len(t.position) && t.position[v].known
}
