package minimizer

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// Occurrence is one graph position of an indexed minimizer: the position of
// the canonical k-mer's first base on the strand given by Rev.
type Occurrence struct {
	Pos vgraph.Position
	Rev bool
}

// HardHitCap mirrors Giraffe's hard hit cap: minimizers with more graph
// occurrences than this are dropped as repetitive.
const HardHitCap = 512

// Index maps canonical k-mer values to their graph occurrences across all
// indexed haplotype paths, with duplicate occurrences (the same position
// reached by several haplotypes) collapsed.
type Index struct {
	cfg  Config
	hits map[uint64][]Occurrence
	// dropped counts minimizers discarded by the hard hit cap.
	dropped int
}

// Config returns the index's parameters.
func (ix *Index) Config() Config { return ix.cfg }

// NumKmers returns the number of distinct indexed minimizer k-mers.
func (ix *Index) NumKmers() int { return len(ix.hits) }

// Dropped returns how many distinct k-mers were dropped by the hit cap.
func (ix *Index) Dropped() int { return ix.dropped }

// Build indexes the minimizers of the given haplotype paths of graph g.
// Paths are node-ID sequences (as stored in the GBWT); every minimizer
// occurrence of their spelled sequences is recorded with its graph position.
//
// A recorded occurrence is the leftmost smallest k-mer of some window of W
// k-mers (K+W−1 bases) of some path, and that window alone decides it. A
// window that starts in node v is spelled by v's label and the next K+W−2
// bases of the path, which the shortest run of following path nodes that
// covers them (or the path's end) fixes. Haplotypes share almost all of
// their sequence, so Build scans each distinct (v, run) once and not each
// path: on A-human, 123 595 path steps have 10 708 distinct (v, run), the
// bases scanned fall from 2 399 050 to 414 187 and the occurrences inserted
// from 533 460 to 50 318.
//
// Pass 1 groups the path steps by node and run: a 64-bit hash of the node
// IDs finds the group, and a comparison of the IDs confirms it. Pass 2
// spells each group's v and run, at most len(v)+K+W−2 bases, in a reused
// buffer. Minimizers come in ascending offset order, so a cursor that only
// moves forward maps each to its node. A k-mer's own occurrence list is its
// duplicate check, and a list stops growing once it passes HardHitCap — it
// will be dropped anyway — so a check costs at most HardHitCap+1 comparisons
// and a repetitive input cannot grow a list without bound.
func Build(g *vgraph.Graph, paths [][]vgraph.NodeID, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for pi, path := range paths {
		for _, id := range path {
			if !g.Has(id) {
				return nil, fmt.Errorf("minimizer: path %d references missing node %d", pi, id)
			}
		}
	}
	span := cfg.K + cfg.W - 2 // bases a window needs past its first
	// A group is one distinct (v, run): its first visit is paths[path][step],
	// and the run is the nodes after it up to end. Two different runs whose
	// hashes collide only cost a second group for the same windows: the newer
	// takes the map slot, and the duplicate check drops what it finds again.
	type group struct{ path, step, end int32 }
	var groups []group
	heads := make(map[uint64]int32)
	firstBases := 0 // window starts over all groups: the bases of their first nodes
	for pi, path := range paths {
		end, covered := 0, 0 // path[i+1:end] spells covered bases
		for i, id := range path {
			if end > i {
				covered -= g.SeqLen(id)
			} else {
				end = i + 1
			}
			for covered < span && end < len(path) {
				covered += g.SeqLen(path[end])
				end++
			}
			visit := path[i:end]
			h := uint64(0)
			for _, n := range visit {
				h = splitmix64(h ^ uint64(n))
			}
			if gi, ok := heads[h]; ok {
				if gr := groups[gi]; slices.Equal(paths[gr.path][gr.step:gr.end], visit) {
					continue
				}
			}
			heads[h] = int32(len(groups))
			groups = append(groups, group{path: int32(pi), step: int32(i), end: int32(end)})
			firstBases += g.SeqLen(id)
		}
	}
	// A random sequence has about 2/(W+1) minimizers per window start, so
	// the map is sized once for that many k-mers instead of rehashing its
	// way up to them.
	ix := &Index{cfg: cfg, hits: make(map[uint64][]Occurrence, 2*firstBases/(cfg.W+1))}
	var (
		seq    dna.Sequence
		starts []int32 // starts[i] is where nodes[i] begins in seq; one more entry ends seq
		mins   []Minimizer
	)
	for _, gr := range groups {
		nodes := paths[gr.path][gr.step:gr.end]
		limit := g.SeqLen(nodes[0]) + span
		seq, starts = seq[:0], starts[:0]
		for _, id := range nodes {
			starts = append(starts, int32(len(seq)))
			label := g.Seq(id)
			seq = append(seq, label[:min(len(label), limit-len(seq))]...)
		}
		starts = append(starts, int32(len(seq)))
		var err error
		if mins, err = appendMinimizers(mins[:0], seq, cfg); err != nil {
			// A node whose path ends less than one window after its
			// start contributes nothing.
			continue
		}
		node := 0
		for _, m := range mins {
			for starts[node+1] <= m.Off {
				node++
			}
			occ := Occurrence{Pos: vgraph.Position{Node: nodes[node], Off: m.Off - starts[node]}, Rev: m.Rev}
			occs := ix.hits[m.Kmer]
			if len(occs) > HardHitCap || slices.Contains(occs, occ) {
				continue
			}
			ix.hits[m.Kmer] = append(occs, occ)
		}
	}
	// Apply the hard hit cap and sort occurrence lists for determinism.
	for kmer, occs := range ix.hits {
		if len(occs) > HardHitCap {
			delete(ix.hits, kmer)
			ix.dropped++
			continue
		}
		slices.SortFunc(occs, compareOccurrences)
	}
	return ix, nil
}

// compareOccurrences orders by node, then offset, then forward before
// reverse.
func compareOccurrences(a, b Occurrence) int {
	if c := cmp.Compare(a.Pos.Node, b.Pos.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pos.Off, b.Pos.Off); c != 0 {
		return c
	}
	switch {
	case a.Rev == b.Rev:
		return 0
	case b.Rev:
		return -1
	}
	return 1
}

// Hits returns the graph occurrences of a canonical k-mer (nil when absent).
// The slice aliases index storage.
func (ix *Index) Hits(kmer uint64) []Occurrence { return ix.hits[kmer] }

// Frequency returns the number of graph occurrences of the k-mer.
func (ix *Index) Frequency(kmer uint64) int { return len(ix.hits[kmer]) }

// Score returns the seeding score of a minimizer with the given graph
// frequency: rarer minimizers are more informative. The formula mirrors
// Giraffe's frequency-weighted scoring: ln(cap/freq) clamped to ≥ 1.
func Score(freq int) float64 {
	if freq >= 0 && freq <= HardHitCap {
		return scoreTable[freq]
	}
	return score(freq)
}

func score(freq int) float64 {
	if freq <= 0 {
		return 0
	}
	s := math.Log(float64(HardHitCap) / float64(freq))
	if s < 1 {
		return 1
	}
	return s
}

// scoreTable holds score over every frequency an indexed minimizer can have
// (Build drops the ones above HardHitCap), so the lookup's once-per-hit Score
// is a load and not a logarithm.
var scoreTable = func() (t [HardHitCap + 1]float64) {
	for freq := range t {
		t[freq] = score(freq)
	}
	return t
}()

// ReadMinimizer pairs a read's minimizer with its index occurrences.
type ReadMinimizer struct {
	Min   Minimizer
	Occs  []Occurrence
	Score float64
}

// AppendLookup computes the read's minimizers and appends them, each with
// its graph occurrences (aliasing index storage), to dst. Minimizers absent
// from the index are omitted. With room in dst it allocates nothing, which
// is what its once-per-read caller seeds.Extract wants: a 150-base read has
// about 30 minimizers, and the scan's stack buffer takes 64 before it spills
// to the heap.
func (ix *Index) AppendLookup(dst []ReadMinimizer, seq dna.Sequence) ([]ReadMinimizer, error) {
	var buf [64]Minimizer
	mins, err := appendMinimizers(buf[:0], seq, ix.cfg)
	if err != nil {
		return dst, err
	}
	for _, m := range mins {
		occs := ix.hits[m.Kmer]
		if len(occs) == 0 {
			continue
		}
		dst = append(dst, ReadMinimizer{Min: m, Occs: occs, Score: Score(len(occs))})
	}
	return dst, nil
}
