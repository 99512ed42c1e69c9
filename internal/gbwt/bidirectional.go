package gbwt

import "errors"

// Bidirectional is a bidirectional GBWT: the forward index plus an index of
// the reversed paths, with synchronised search states — the structure
// Giraffe uses to extend seed matches in both directions while staying
// haplotype-consistent (the gapless extension of §IV-B walks left and right
// from every seed).
//
// The synchronisation follows the bidirectional-FM-index construction: a
// match M = m1..mk is tracked as a forward range (at mk, ordered within the
// match class by the predecessors of m1) and a reverse range (at m1 in the
// reversed index, ordered by the successors of mk). Extending on one side is
// one LF step in that side's index; the other side's range shrinks in place,
// with its new offset obtained by counting, in the stepped side's record,
// the occurrences of smaller-ordered edges inside the old range.
type Bidirectional struct {
	fwd *GBWT
	rev *GBWT
}

// BiState is a synchronised pair of search states. Fwd sits at the match's
// last node in the forward index; Rev sits at the match's first node in the
// reversed index. Both ranges always have the same size.
type BiState struct {
	Fwd, Rev SearchState
}

// Empty reports whether the state matches no haplotypes.
func (s BiState) Empty() bool { return s.Fwd.Empty() }

// FromForward wraps an existing forward GBWT, rebuilding the reverse index
// from the given paths (which must be the ones fwd was built from).
func FromForward(fwd *GBWT, paths [][]NodeID) (*Bidirectional, error) {
	if fwd == nil {
		return nil, errors.New("gbwt: nil forward index")
	}
	rev := make([][]NodeID, len(paths))
	for i, p := range paths {
		r := make([]NodeID, len(p))
		for j, v := range p {
			r[len(p)-1-j] = v
		}
		rev[i] = r
	}
	revIdx, err := New(rev)
	if err != nil {
		return nil, err
	}
	return &Bidirectional{fwd: fwd, rev: revIdx}, nil
}

// Forward returns the forward index.
func (b *Bidirectional) Forward() *GBWT { return b.fwd }

// Reverse returns the reversed-path index.
func (b *Bidirectional) Reverse() *GBWT { return b.rev }

// BiFullState returns the state matching every visit of node v (the
// single-node match M = [v]).
func (b *Bidirectional) BiFullState(v NodeID) BiState {
	return BiState{Fwd: b.fwd.FullState(v), Rev: b.rev.FullState(v)}
}

// BiReader pairs the per-direction record readers so the extension kernel's
// cache behaviour covers both orientations.
type BiReader struct {
	Fwd, Rev *CachedGBWT
}

// NewBiReader builds cached readers over both directions with the given
// initial capacity (0: readers that decode on every access).
func (b *Bidirectional) NewBiReader(capacity int) BiReader {
	return BiReader{Fwd: NewCached(b.fwd, capacity), Rev: NewCached(b.rev, capacity)}
}

// smallerEdgeCount counts, within rec.Ranks[start:end), occurrences of edges
// ordered strictly before `to`.
//
//minigiraffe:hot
func smallerEdgeCount(rec *DecodedRecord, start, end int32, to NodeID) int32 {
	var n int32
	for _, v := range rec.Ranks[start:end] {
		if rec.Edges[v].To < to {
			n++
		}
	}
	return n
}

// ExtendRightWith extends the match with a following node: M ↦ M·to. The
// forward range takes an LF step; the reverse range shrinks in place, its
// offset advanced by the in-range occurrences of successors smaller than
// `to`.
//
//minigiraffe:hot
func ExtendRightWith(r BiReader, s BiState, to NodeID) BiState {
	if s.Empty() {
		return BiState{Fwd: SearchState{Node: to}, Rev: s.Rev}
	}
	rec := r.Fwd.Record(s.Fwd.Node)
	if rec == nil {
		return BiState{Fwd: SearchState{Node: to}, Rev: s.Rev}
	}
	// The step fetches the record again: the access sequence the cache
	// counters are compared on (ROADMAP item 2) has both.
	newFwd := r.Fwd.Record(s.Fwd.Node).lf(s.Fwd, to)
	if newFwd.Empty() {
		return BiState{Fwd: newFwd, Rev: SearchState{Node: s.Rev.Node}}
	}
	off := smallerEdgeCount(rec, s.Fwd.Start, s.Fwd.End, to)
	newRev := SearchState{
		Node:  s.Rev.Node,
		Start: s.Rev.Start + off,
	}
	newRev.End = newRev.Start + int32(newFwd.Size())
	return BiState{Fwd: newFwd, Rev: newRev}
}

// ExtendLeftWith extends the match with a preceding node: M ↦ u·M. The reverse
// range takes an LF step (u follows the first node in the reversed paths);
// the forward range shrinks in place by the count of in-range predecessors
// smaller than u.
//
//minigiraffe:hot
func ExtendLeftWith(r BiReader, s BiState, u NodeID) BiState {
	if s.Empty() {
		return BiState{Fwd: s.Fwd, Rev: SearchState{Node: u}}
	}
	rec := r.Rev.Record(s.Rev.Node)
	if rec == nil {
		return BiState{Fwd: s.Fwd, Rev: SearchState{Node: u}}
	}
	newRev := r.Rev.Record(s.Rev.Node).lf(s.Rev, u) // fetched again, as in ExtendRightWith
	if newRev.Empty() {
		return BiState{Fwd: SearchState{Node: s.Fwd.Node}, Rev: newRev}
	}
	off := smallerEdgeCount(rec, s.Rev.Start, s.Rev.End, u)
	newFwd := SearchState{
		Node:  s.Fwd.Node,
		Start: s.Fwd.Start + off,
	}
	newFwd.End = newFwd.Start + int32(newRev.Size())
	return BiState{Fwd: newFwd, Rev: newRev}
}
