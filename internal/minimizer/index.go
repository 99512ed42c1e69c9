package minimizer

import (
	"fmt"
	"math"
	"sort"

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
// Paths are node-ID sequences (as stored in the GBWT); each path's spelled
// sequence is scanned and every minimizer occurrence is recorded with its
// graph position.
func Build(g *vgraph.Graph, paths [][]vgraph.NodeID, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{cfg: cfg, hits: make(map[uint64][]Occurrence)}
	type key struct {
		kmer uint64
		pos  vgraph.Position
		rev  bool
	}
	seen := make(map[key]bool)
	for pi, path := range paths {
		// Spell the path and remember, for each spelled offset, its node and
		// within-node offset.
		var seq dna.Sequence
		type coord struct {
			node vgraph.NodeID
			off  int32
		}
		var coords []coord
		for _, id := range path {
			if !g.Has(id) {
				return nil, fmt.Errorf("minimizer: path %d references missing node %d", pi, id)
			}
			label := g.Seq(id)
			for off := range label {
				coords = append(coords, coord{node: id, off: int32(off)})
			}
			seq = append(seq, label...)
		}
		mins, err := Minimizers(seq, cfg)
		if err != nil {
			// Paths shorter than a window contribute nothing.
			continue
		}
		for _, m := range mins {
			c := coords[m.Off]
			pos := vgraph.Position{Node: c.node, Off: c.off}
			k := key{kmer: m.Kmer, pos: pos, rev: m.Rev}
			if seen[k] {
				continue
			}
			seen[k] = true
			ix.hits[m.Kmer] = append(ix.hits[m.Kmer], Occurrence{Pos: pos, Rev: m.Rev})
		}
	}
	// Apply the hard hit cap and sort occurrence lists for determinism.
	for kmer, occs := range ix.hits {
		if len(occs) > HardHitCap {
			delete(ix.hits, kmer)
			ix.dropped++
			continue
		}
		sort.Slice(occs, func(a, b int) bool {
			if occs[a].Pos.Node != occs[b].Pos.Node {
				return occs[a].Pos.Node < occs[b].Pos.Node
			}
			if occs[a].Pos.Off != occs[b].Pos.Off {
				return occs[a].Pos.Off < occs[b].Pos.Off
			}
			return !occs[a].Rev && occs[b].Rev
		})
	}
	return ix, nil
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
