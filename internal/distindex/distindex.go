// Package distindex implements the distance index Giraffe's clustering
// stage consults: the minimum graph distance between two positions (Sirén et
// al., Science 2021, §II-B(c) of the miniGiraffe paper). Like Giraffe, the
// index is built over a snarl decomposition (package snarl) and answers
// chain-scale queries in O(1) via prefix sums; graphs outside the
// decomposable class fall back to a memoised bounded Dijkstra. A cheap
// backbone-coordinate estimate supports the clustering pre-filter.
package distindex

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"repro/internal/snarl"
	"repro/internal/vgraph"
)

// Unreachable is returned when no forward walk within the limit connects the
// positions.
const Unreachable = -1

// Index answers minimum-distance queries over a fixed graph. When the graph
// decomposes into a snarl chain (package snarl) — true for every pangenome
// this reproduction builds — queries are answered exactly in O(1) via chain
// prefix sums, mirroring Giraffe's snarl-tree-based minimum distance index;
// otherwise a memoised bounded Dijkstra serves as fallback.
type Index struct {
	g *vgraph.Graph
	// tree is the snarl decomposition, nil when the graph is outside the
	// decomposable class.
	tree *snarl.Tree
	// memo caches exact node-to-node start distances for repeated queries;
	// bounded to keep memory predictable. Guarded by memoMu: the index is
	// shared by every mapping worker (and the streaming pipeline's pool).
	memoMu   sync.RWMutex
	memo     map[nodePair]int32
	memoCap  int
	memoHits int64 // atomic
}

type nodePair struct {
	from, to vgraph.NodeID
}

// defaultMemoCap bounds the memoisation table.
const defaultMemoCap = 1 << 20

// New builds a distance index over g, attempting the snarl decomposition
// first.
func New(g *vgraph.Graph) *Index {
	ix := &Index{g: g, memo: make(map[nodePair]int32), memoCap: defaultMemoCap}
	if tree, err := snarl.Decompose(g); err == nil {
		ix.tree = tree
	}
	return ix
}

// HasSnarlTree reports whether queries use the snarl decomposition.
func (ix *Index) HasSnarlTree() bool { return ix.tree != nil }

// Graph returns the indexed graph.
func (ix *Index) Graph() *vgraph.Graph { return ix.g }

// BackboneDistance returns the distance estimate |backbone(b)+b.Off -
// (backbone(a)+a.Off)|, the bubble-chain projection of both positions onto
// the linear reference. It is exact for positions on shared reference nodes
// and within one bubble's diameter otherwise.
func (ix *Index) BackboneDistance(a, b vgraph.Position) int {
	ca := int(ix.g.Backbone(a.Node)) + int(a.Off)
	cb := int(ix.g.Backbone(b.Node)) + int(b.Off)
	if cb >= ca {
		return cb - ca
	}
	return ca - cb
}

// MinDistance returns the minimum number of bases separating position a from
// position b along any forward walk (in either direction: a→b or b→a),
// or Unreachable if no walk of length ≤ limit exists. The distance counts
// the bases strictly between the two positions, so adjacent bases are at
// distance 1 and identical positions at distance 0.
func (ix *Index) MinDistance(a, b vgraph.Position, limit int) int {
	if ix.tree != nil {
		d := ix.tree.MinDistance(a, b)
		if d == snarl.Unreachable || d > limit {
			return Unreachable
		}
		return d
	}
	if d := ix.directed(a, b, limit); d != Unreachable {
		return d
	}
	return ix.directed(b, a, limit)
}

// directed computes the forward-walk distance from a to b, ≤ limit.
func (ix *Index) directed(a, b vgraph.Position, limit int) int {
	if a.Node == b.Node {
		if b.Off >= a.Off {
			return int(b.Off - a.Off)
		}
		return Unreachable // DAG: no walk revisits the node
	}
	// Distance from a to the start of b.Node, then add b.Off.
	tail := int32(ix.g.SeqLen(a.Node)) - a.Off // bases from a to the end of its node (exclusive of a)
	d := ix.nodeStartDistance(a.Node, b.Node, int32(limit)-b.Off-tail)
	if d == Unreachable {
		return Unreachable
	}
	total := int(tail) + d + int(b.Off)
	if total > limit {
		return Unreachable
	}
	return total
}

// nodeStartDistance returns the minimum number of bases between the end of
// `from` and the start of `to` (0 when `to` directly follows `from`),
// bounded by limit, via Dijkstra weighted by intermediate node lengths.
func (ix *Index) nodeStartDistance(from, to vgraph.NodeID, limit int32) int {
	key := nodePair{from, to}
	ix.memoMu.RLock() //vetgiraffe:ignore hotpath memo fast path: uncontended RLock is ~20ns, a Dijkstra re-run is microseconds
	d, ok := ix.memo[key]
	ix.memoMu.RUnlock()
	if ok {
		atomic.AddInt64(&ix.memoHits, 1)
		if d == Unreachable || d > limit {
			return Unreachable
		}
		return int(d)
	}
	if limit < 0 {
		return Unreachable
	}
	dist := ix.dijkstra(from, to, limit)
	// Only reachable distances are limit-independent facts; memoising an
	// Unreachable computed under a small limit would poison larger queries.
	if dist != Unreachable {
		ix.memoMu.Lock() //vetgiraffe:ignore hotpath memo insert happens at most once per node pair, after the Dijkstra slow path
		if len(ix.memo) < ix.memoCap {
			ix.memo[key] = int32(dist) //vetgiraffe:ignore hotpath capacity-capped memo growth is the point of the cache
		}
		ix.memoMu.Unlock()
	}
	return dist
}

// pqItem is a priority-queue entry: node reached with accumulated distance.
type pqItem struct {
	node vgraph.NodeID
	d    int32
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// dijkstra finds the min gap (in bases) between the end of `from` and the
// start of `to`, exploring forward edges only, pruned at limit.
func (ix *Index) dijkstra(from, to vgraph.NodeID, limit int32) int {
	best := make(map[vgraph.NodeID]int32) //vetgiraffe:ignore hotpath memo-miss slow path; the memo exists so this stays rare
	q := pq{}
	for _, s := range ix.g.Successors(from) {
		heap.Push(&q, pqItem{node: s, d: 0})
	}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if prev, ok := best[it.node]; ok && prev <= it.d {
			continue
		}
		best[it.node] = it.d //vetgiraffe:ignore hotpath memo-miss slow path; bounded by the limit-pruned frontier
		if it.node == to {
			return int(it.d)
		}
		nd := it.d + int32(ix.g.SeqLen(it.node))
		if nd > limit {
			continue
		}
		for _, s := range ix.g.Successors(it.node) {
			if prev, ok := best[s]; !ok || nd < prev {
				heap.Push(&q, pqItem{node: s, d: nd})
			}
		}
	}
	return Unreachable
}

// MemoHits reports how many fallback-path queries the memo answered. The
// snarl-tree path, which every query of a decomposable graph takes, counts
// nothing: a shared counter there is a contended cache line per seed pair.
func (ix *Index) MemoHits() int64 {
	return atomic.LoadInt64(&ix.memoHits)
}
