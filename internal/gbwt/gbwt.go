// Package gbwt implements the Graph Burrows-Wheeler Transform (Sirén et
// al.), the haplotype index at the heart of Giraffe: haplotypes are stored as
// paths in the variation graph, represented as a BWT over node identifiers.
// Each graph node owns a *record* holding its outgoing edges and a
// run-length compressed body of successor ranks; LF-mapping over records
// supports haplotype-consistent search and extension.
//
// Records are stored compressed (run-length + varint, mirroring the GBZ
// in-memory layout) and decompressed on access. The CachedGBWT type keeps
// decompressed records in a hash table whose initial capacity is the
// "CachedGBWT capacity" tuning parameter studied in the miniGiraffe paper
// (§VII-B): too small and the mapper pays repeated decompressions and
// rehashes; too large and it wastes cache locality.
//
// Memory: New encodes every record into one arena and builds in a fixed
// number of flat buffers, whatever the node count. GBWT.Record allocates the
// record it returns, and the caller owns it. A CachedGBWT decodes its misses
// into a slab of its own (recordSlab: geometrically growing chunks, handed
// out as capacity-clipped windows), so a miss costs no allocation; its
// records live as long as the cache's entries do and remain valid for
// whoever still holds one afterwards.
// Record bodies come from untrusted files: the decoder checks every count
// before sizing anything from it and that edges ascend strictly in To, and
// the loader checks each record without building it (FuzzDecodeRecord).
package gbwt

import (
	"fmt"

	"repro/internal/vgraph"
)

// NodeID aliases the graph's node identifier. ID 0 is the endmarker: a
// virtual node that precedes every path start and terminates every path.
type NodeID = vgraph.NodeID

// Endmarker is the virtual node terminating every path.
const Endmarker NodeID = 0

// maxEdges bounds a record's out-degree so successor ranks fit in a byte.
const maxEdges = 255

// Edge is one outgoing edge of a record: the successor node and the offset
// of this record's first arrival inside the successor's record (the LF
// base).
type Edge struct {
	To     NodeID
	Offset int32
}

// DecodedRecord is a decompressed node record: the sorted outgoing edges and
// the BWT body, one successor edge-rank per haplotype visit, in GBWT visit
// order.
type DecodedRecord struct {
	Edges []Edge
	Ranks []byte
}

// edgeRank returns the index of `to` in the sorted edge list, or -1. The
// binary search is inlined by hand: sort.Search's func parameter keeps this
// leaf out of the compiler's inlining budget, and edgeRank sits on every
// Record step of the extension kernel.
//
//minigiraffe:hot
func (r *DecodedRecord) edgeRank(to NodeID) int {
	lo, hi := 0, len(r.Edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Edges[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Edges) && r.Edges[lo].To == to {
		return lo
	}
	return -1
}

// rankAt counts occurrences of edge-rank e in Ranks[0:i).
//
//minigiraffe:hot
func (r *DecodedRecord) rankAt(e int, i int32) int32 {
	var n int32
	b := byte(e)
	for _, v := range r.Ranks[:i] {
		if v == b {
			n++
		}
	}
	return n
}

// GBWT is an immutable Graph BWT over a set of paths. Records live
// compressed; Record decodes one on every call, a CachedGBWT memoises.
type GBWT struct {
	// comp[v] is the compressed record of node v (index 0 = endmarker);
	// nil for nodes with no visits.
	comp [][]byte
	// visits[v] caches the visit count per node so NumVisits avoids decoding.
	visits []int32
	// endDA is the document array of the endmarker record: the path
	// identifier of each arrival, in visit order. It is part of the
	// serialized index; the tests' LocatePaths reads it.
	endDA    []int32
	numPaths int
}

// NumPaths returns the number of indexed paths.
func (g *GBWT) NumPaths() int { return g.numPaths }

// MaxNode returns the largest node identifier with a record (0 if empty).
func (g *GBWT) MaxNode() NodeID { return NodeID(len(g.comp) - 1) }

// NumVisits returns the number of path visits through node v.
func (g *GBWT) NumVisits(v NodeID) int {
	if int(v) >= len(g.visits) {
		return 0
	}
	return int(g.visits[v])
}

// Record decodes and returns node v's record, or nil when v is unvisited.
// Each call decompresses afresh into memory the caller owns; use CachedGBWT
// to amortise.
func (g *GBWT) Record(v NodeID) *DecodedRecord { return g.record(v, nil) }

// record is Record with the decoded storage taken from slab (nil: the heap).
func (g *GBWT) record(v NodeID, slab *recordSlab) *DecodedRecord {
	if int(v) >= len(g.comp) || g.comp[v] == nil {
		return nil
	}
	rec, err := decodeRecord(g.comp[v], uint64(g.visits[v]), slab)
	if err != nil {
		// Compressed records are produced by this package; a decode failure
		// is a programming error, not a user error.
		panic(fmt.Sprintf("gbwt: corrupt record for node %d: %v", v, err))
	}
	return rec
}

// SearchState is a half-open range [Start,End) of visits in Node's record:
// the haplotype set whose next step is being tracked.
type SearchState struct {
	Node       NodeID
	Start, End int32
}

// Empty reports whether the state matches no haplotypes.
func (s SearchState) Empty() bool { return s.Start >= s.End }

// Size returns the number of haplotypes in the state.
func (s SearchState) Size() int {
	if s.Empty() {
		return 0
	}
	return int(s.End - s.Start)
}

// FullState returns the state covering every visit of node v.
func (g *GBWT) FullState(v NodeID) SearchState {
	return SearchState{Node: v, End: int32(g.NumVisits(v))}
}

// lf is the one LF step: state s of this record's node mapped along the edge
// to `to` into to's record. A nil record — an unvisited node — and a record
// without that edge both give the empty state.
//
//minigiraffe:hot
func (r *DecodedRecord) lf(s SearchState, to NodeID) SearchState {
	if r == nil {
		return SearchState{Node: to}
	}
	e := r.edgeRank(to)
	if e < 0 {
		return SearchState{Node: to}
	}
	off := r.Edges[e].Offset
	return SearchState{
		Node:  to,
		Start: off + r.rankAt(e, s.Start),
		End:   off + r.rankAt(e, s.End),
	}
}
