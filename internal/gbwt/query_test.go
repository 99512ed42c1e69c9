package gbwt

import (
	"errors"
	"fmt"
	"sort"
)

// The queries below are the kernel's referees: whole-path search, location
// and extraction over the same records and the same LF step the map path
// runs. No deliverable route calls them, so they live with the tests that
// hold the kernel to them.

// NumVisits returns the number of haplotype visits through the record.
func (r *DecodedRecord) NumVisits() int { return len(r.Ranks) }

// encodeRecord serialises a decoded record.
func encodeRecord(rec *DecodedRecord) []byte {
	return appendRecord(make([]byte, 0, 16+len(rec.Edges)*4+len(rec.Ranks)), rec.Edges, rec.Ranks)
}

// Contains reports whether node v is visited by any path.
func (g *GBWT) Contains(v NodeID) bool {
	return int(v) < len(g.comp) && g.comp[v] != nil
}

// Extend is CachedGBWT.Extend without a cache: it decodes s.Node's record.
func (g *GBWT) Extend(s SearchState, to NodeID) SearchState {
	if s.Empty() {
		return SearchState{Node: to}
	}
	return g.Record(s.Node).lf(s, to)
}

// Find is CachedGBWT.Find through a reader that caches nothing.
func (g *GBWT) Find(path []NodeID) SearchState { return NewCached(g, 0).Find(path) }

// LocatePaths resolves a search state to the identifiers of the matching
// paths by following each haplotype forward to the endmarker. Cost is
// O(size × remaining-path-length).
func (g *GBWT) LocatePaths(s SearchState) []int {
	out := make([]int, 0, s.Size())
	for i := s.Start; i < s.End; i++ {
		out = append(out, g.locateOne(s.Node, i))
	}
	sort.Ints(out)
	return out
}

// locateOne follows the haplotype at visit i of node v to the endmarker and
// returns its path id from the document array.
func (g *GBWT) locateOne(v NodeID, i int32) int {
	for v != Endmarker {
		rec := g.Record(v)
		e := int(rec.Ranks[i])
		edge := rec.Edges[e]
		i = edge.Offset + rec.rankAt(e, i)
		v = edge.To
	}
	return int(g.endDA[i])
}

// ExtractPath reconstructs path id p by walking from the endmarker record.
func (g *GBWT) ExtractPath(p int) ([]NodeID, error) {
	if p < 0 || p >= g.numPaths {
		return nil, fmt.Errorf("gbwt: path %d out of range [0,%d)", p, g.numPaths)
	}
	end := g.Record(Endmarker)
	// Endmarker visits are in path order by construction.
	v := end.Edges[end.Ranks[p]].To
	i := end.Edges[end.Ranks[p]].Offset + end.rankAt(int(end.Ranks[p]), int32(p))
	var out []NodeID
	for v != Endmarker {
		out = append(out, v)
		rec := g.Record(v)
		e := int(rec.Ranks[i])
		edge := rec.Edges[e]
		i = edge.Offset + rec.rankAt(e, i)
		v = edge.To
	}
	if len(out) == 0 {
		return nil, errors.New("gbwt: empty path")
	}
	return out, nil
}

// Len returns the number of privately cached records.
func (c *CachedGBWT) Len() int { return c.table.used }

// Extend advances state along the edge to `to`, LF-mapping the visit range
// into to's record. The result is empty if no haplotype in the state
// continues to `to`.
func (c *CachedGBWT) Extend(s SearchState, to NodeID) SearchState {
	if s.Empty() {
		return SearchState{Node: to}
	}
	return c.Record(s.Node).lf(s, to)
}

// Find returns the search state of haplotypes containing the node sequence
// `path` as a consecutive subpath.
func (c *CachedGBWT) Find(path []NodeID) SearchState {
	if len(path) == 0 {
		return SearchState{}
	}
	s := c.g.FullState(path[0])
	for _, v := range path[1:] {
		s = c.Extend(s, v)
		if s.Empty() {
			break
		}
	}
	return s
}

// Size returns the number of matching haplotype occurrences.
func (s BiState) Size() int { return s.Fwd.Size() }

// NewBidirectional builds both orientations from the same path set.
func NewBidirectional(paths [][]NodeID) (*Bidirectional, error) {
	fwd, err := New(paths)
	if err != nil {
		return nil, err
	}
	return FromForward(fwd, paths)
}

// ExtendRight is one ExtendRightWith step without a cache. The capacity-0
// reader pair it decodes through is inlined onto its stack (calling
// NewBiReader here would put it on the heap); a search of many steps builds
// NewBiReader(0) once, as FindBi does.
func (b *Bidirectional) ExtendRight(s BiState, to NodeID) BiState {
	return ExtendRightWith(BiReader{Fwd: NewCached(b.fwd, 0), Rev: NewCached(b.rev, 0)}, s, to)
}

// ExtendLeft is ExtendRight's mirror image over ExtendLeftWith.
func (b *Bidirectional) ExtendLeft(s BiState, u NodeID) BiState {
	return ExtendLeftWith(BiReader{Fwd: NewCached(b.fwd, 0), Rev: NewCached(b.rev, 0)}, s, u)
}

// FindBi searches for the node path bidirectionally (seeding on the middle
// node and alternating directions); its result must match the forward Find.
func (b *Bidirectional) FindBi(path []NodeID) BiState {
	if len(path) == 0 {
		return BiState{}
	}
	mid := len(path) / 2
	s := b.BiFullState(path[mid])
	r := b.NewBiReader(0)
	// Alternate directions to exercise the synchronisation both ways.
	left, right := mid-1, mid+1
	for !s.Empty() && (left >= 0 || right < len(path)) {
		if right < len(path) {
			s = ExtendRightWith(r, s, path[right])
			right++
		}
		if !s.Empty() && left >= 0 {
			s = ExtendLeftWith(r, s, path[left])
			left--
		}
	}
	return s
}
