// Package seeds defines the seed records that connect Giraffe's
// preprocessing to the seed-and-extend kernels, and the binary capture
// format ("sequence-seeds.bin") that miniGiraffe consumes as input: the
// paper's proxy takes the reads plus their preprocessed seeds, captured from
// Giraffe right before the critical functions execute (§V).
package seeds

import (
	"errors"
	"fmt"

	"repro/internal/dna"
	"repro/internal/minimizer"
	"repro/internal/vgraph"
)

// Seed anchors a read offset to a graph position: a minimizer shared between
// the read and the pangenome, i.e. where a mapping walk can start.
type Seed struct {
	// Pos is the graph position of the seed k-mer's first base, on the
	// graph's forward strand.
	Pos vgraph.Position
	// ReadOff is the k-mer's offset in the *oriented* read: the read as
	// sequenced when Rev is false, its reverse complement when Rev is true.
	ReadOff int32
	// Rev is true when the read matches the graph on the reverse strand.
	Rev bool
	// Score is the minimizer's frequency-weighted seeding score.
	Score float32
}

// ReadSeeds bundles one read with its seeds — one record of the proxy's
// captured input.
type ReadSeeds struct {
	Read  dna.Read
	Seeds []Seed
}

// What Check refuses.
var (
	errSeedNode    = errors.New("node is not in the graph")
	errSeedOff     = errors.New("offset outside the node")
	errSeedReadOff = errors.New("read offset outside the read")
)

// Check holds a record that came from a file against the graph it is about
// to be mapped on: every seed's node exists (node 0 never does), its offset
// lies inside that node and its read offset inside the read. The kernels
// index with all three unchecked, on goroutines no caller can recover, so
// core.Mapper.Run and pipeline's ingest stage call it first. Every seed
// Extract makes passes; accepting allocates nothing.
func (rs *ReadSeeds) Check(g *vgraph.Graph) error {
	for i := range rs.Seeds {
		s := &rs.Seeds[i]
		var err error
		switch {
		case !g.Has(s.Pos.Node):
			err = errSeedNode
		case s.Pos.Off < 0 || int(s.Pos.Off) >= g.SeqLen(s.Pos.Node):
			err = errSeedOff
		case s.ReadOff < 0 || int(s.ReadOff) >= len(rs.Read.Seq):
			err = errSeedReadOff
		}
		if err != nil {
			return fmt.Errorf("seeds: read %q seed %d (%v, read offset %d): %w", rs.Read.Name, i, s.Pos, s.ReadOff, err)
		}
	}
	return nil
}

// Extract computes the seeds of a read against a minimizer index, performing
// the orientation normalisation: a hit whose canonical orientation differs
// between read and graph anchors the reverse-complemented read. The returned
// slice, sized exactly, is the call's only allocation. A read too short to
// hold one minimizer window has no seeds and maps nowhere, as Giraffe leaves
// it; that is not an error.
func Extract(ix *minimizer.Index, read *dna.Read) ([]Seed, error) {
	return AppendExtract(nil, ix, read)
}

// AppendExtract is Extract onto the end of dst — a slab that holds a whole
// batch's seeds — and returns the extended slice: the read's seeds are
// dst[len(dst):] of the result. With room in dst it allocates nothing; a
// read without seeds returns dst as it was passed.
func AppendExtract(dst []Seed, ix *minimizer.Index, read *dna.Read) ([]Seed, error) {
	var buf [64]minimizer.ReadMinimizer
	rms, err := ix.AppendLookup(buf[:0], read.Seq)
	if err != nil {
		if errors.Is(err, minimizer.ErrSequenceTooShort) {
			return dst, nil
		}
		return dst, err
	}
	total := 0
	for i := range rms {
		total += len(rms[i].Occs)
	}
	if room := cap(dst) - len(dst); room < total {
		// Exactly total for an empty dst, at least double for a slab.
		dst = append(make([]Seed, 0, len(dst)+max(total, cap(dst))), dst...)
	}
	k := int32(ix.Config().K)
	n := int32(len(read.Seq))
	for _, rm := range rms {
		for _, occ := range rm.Occs {
			rev := rm.Min.Rev != occ.Rev
			readOff := rm.Min.Off
			if rev {
				// The k-mer's first base in the reverse-complemented read.
				readOff = n - k - rm.Min.Off
			}
			dst = append(dst, Seed{
				Pos:     occ.Pos,
				ReadOff: readOff,
				Rev:     rev,
				Score:   float32(rm.Score),
			})
		}
	}
	return dst, nil
}
