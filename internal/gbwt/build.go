package gbwt

import (
	"errors"
	"fmt"
	"slices"
)

// visit identifies one step of one path: path `path` is at its `pos`-th node.
type visit struct {
	path int32
	pos  int32
}

// New builds a GBWT over the given haplotype paths. Paths are sequences of
// node identifiers (never the endmarker 0). The node adjacencies observed
// across all paths must form a DAG — true for the bubble-chain variation
// graphs this reproduction constructs — because the builder places each
// node's visits only after all of its predecessors have placed theirs.
//
// GBWT visit order is predecessor order: a node's visits are those arriving
// from its smallest predecessor first, each group in that predecessor's own
// visit order. So the build is a handful of counting passes over flat
// arrays, with no map and no sort beyond each node's successor list:
//
//   - count the visits of every node and lay them out by node (compressed
//     sparse rows), with each visit's successor beside it;
//   - sort each node's successors and keep the distinct ones with their
//     counts: the record's edges;
//   - order the nodes topologically (Kahn, FIFO), which is also the cycle
//     check;
//   - give each edge its offset from a running per-target counter, walking
//     the predecessors in ascending ID order;
//   - walk the nodes in topological order and drop each visit into its
//     successor's row at the edge's offset plus the visits already sent
//     along that edge: a position, so the order among ready nodes cannot
//     change the result;
//   - encode every record into one arena.
//
// The memory is a fixed number of buffers, whatever the node count.
func New(paths [][]NodeID) (*GBWT, error) {
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

	// Row v of the visit table holds node v's visits; the endmarker's row is
	// one visit per path start, in path order.
	start := make([]int32, n+1)
	start[1] = int32(len(paths))
	for _, p := range paths {
		for i, v := range p {
			if i > 0 && v == p[i-1] {
				return nil, fmt.Errorf("gbwt: path repeats node %d consecutively (self-loop)", v)
			}
			start[v+1]++
		}
	}
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	total := int(start[n])

	// succ[k]: the node visit k steps to next, the endmarker at a path's end,
	// filled in path order (row order is only set below).
	succ := make([]NodeID, total)
	fill := make([]int32, n)
	copy(fill, start)
	for j, p := range paths {
		succ[j] = p[0]
		for i, v := range p {
			s := Endmarker
			if i+1 < len(p) {
				s = p[i+1]
			}
			succ[fill[v]] = s
			fill[v]++
		}
	}

	// Each row's distinct successors, ascending, with how many visits take
	// them: the record's edges, and in-degrees for the topological order.
	edgeStart := make([]int32, n+1)
	for v := 0; v < n; v++ {
		row := succ[start[v]:start[v+1]]
		slices.Sort(row)
		d := int32(0)
		for k := range row {
			if k == 0 || row[k] != row[k-1] {
				d++
			}
		}
		edgeStart[v+1] = edgeStart[v] + d
	}
	edges := make([]Edge, edgeStart[n])
	sent := make([]int32, len(edges)) // visits per edge; then the next free slot
	indeg := fill                     // fill's last use is behind; reuse it
	clear(indeg)
	tooMany := NodeID(0) // the smallest node past maxEdges, 0 when none
	for v := 0; v < n; v++ {
		row := succ[start[v]:start[v+1]]
		e := edgeStart[v] - 1
		for k, s := range row {
			if k == 0 || s != row[k-1] {
				e++
				edges[e].To = s
				if v != 0 && s != Endmarker {
					indeg[s]++
				}
			}
			sent[e]++
		}
		if d := edgeStart[v+1] - edgeStart[v]; d > maxEdges && v != 0 && tooMany == 0 {
			tooMany = NodeID(v)
		}
	}

	// Kahn over the visited nodes, first in first out. The queue ends up
	// holding the topological order.
	order := make([]NodeID, 0, n)
	active := 0
	for v := 1; v < n; v++ {
		if start[v+1] > start[v] {
			active++
			if indeg[v] == 0 {
				order = append(order, NodeID(v))
			}
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, e := range edges[edgeStart[v]:edgeStart[v+1]] {
			if e.To != Endmarker {
				if indeg[e.To]--; indeg[e.To] == 0 {
					order = append(order, e.To)
				}
			}
		}
	}
	if len(order) != active {
		return nil, errors.New("gbwt: path adjacencies contain a cycle; only DAGs are supported")
	}
	if tooMany != 0 {
		d := edgeStart[tooMany+1] - edgeStart[tooMany]
		return nil, fmt.Errorf("gbwt: node %d has %d successors (max %d)", tooMany, d, maxEdges)
	}

	// An edge's offset is the number of visits its target receives from
	// smaller predecessors: a running count per target, walked in
	// predecessor order. From here on sent[e] is the next slot the edge
	// fills in its target's row.
	arrived := indeg // every in-degree is zero again after Kahn
	for e := range edges {
		to := edges[e].To
		edges[e].Offset = arrived[to]
		arrived[to] += sent[e]
		sent[e] = edges[e].Offset
	}

	// Place every visit in its successor's row, the endmarker's row first,
	// and note its edge rank in the record body.
	rows := make([]visit, total)
	ranks := make([]byte, total)
	endDA := make([]int32, len(paths))
	place := func(v NodeID, k int32, vt visit, s NodeID) {
		lo := edgeStart[v]
		e := lo
		for edges[e].To != s { // the node's few edges, ascending
			e++
		}
		ranks[k] = byte(e - lo)
		slot := sent[e]
		sent[e]++
		if s == Endmarker {
			endDA[slot] = vt.path
		} else {
			rows[start[s]+slot] = visit{path: vt.path, pos: vt.pos + 1}
		}
	}
	for j, p := range paths {
		place(Endmarker, int32(j), visit{path: int32(j), pos: -1}, p[0])
	}
	for _, v := range order {
		for k := start[v]; k < start[v+1]; k++ {
			vt := rows[k]
			p := paths[vt.path]
			s := Endmarker
			if int(vt.pos)+1 < len(p) {
				s = p[vt.pos+1]
			}
			place(v, k, vt, s)
		}
	}

	// Encode every record into one arena: sized by a first encoding into a
	// scratch buffer, so the arena is allocated once and never moves.
	record := func(buf []byte, v int) []byte {
		return appendRecord(buf, edges[edgeStart[v]:edgeStart[v+1]], ranks[start[v]:start[v+1]])
	}
	size := 0
	var scratch []byte
	for v := 0; v < n; v++ {
		if start[v+1] > start[v] {
			scratch = record(scratch[:0], v)
			size += len(scratch)
		}
	}
	g := &GBWT{
		comp:     make([][]byte, n),
		visits:   make([]int32, n),
		endDA:    endDA,
		numPaths: len(paths),
	}
	arena := make([]byte, 0, size)
	for v := 0; v < n; v++ {
		if start[v+1] > start[v] {
			lo := len(arena)
			arena = record(arena, v)
			g.comp[v] = arena[lo:len(arena):len(arena)]
			g.visits[v] = start[v+1] - start[v]
		}
	}
	return g, nil
}
