package vgraph

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dna"
)

// VariantKind distinguishes the three variant classes the builder supports.
type VariantKind uint8

// Variant kinds, matching the classes a VCF encodes into a variation graph.
const (
	SNP VariantKind = iota
	Insertion
	Deletion
)

func (k VariantKind) String() string {
	switch k {
	case SNP:
		return "SNP"
	case Insertion:
		return "INS"
	case Deletion:
		return "DEL"
	default:
		return fmt.Sprintf("VariantKind(%d)", uint8(k))
	}
}

// Variant describes one site of variation against the linear reference.
//
//   - SNP: the single reference base at Pos is substituted; Alt holds the
//     alternative base(s), each becoming its own allele branch.
//   - Insertion: Alt is inserted between reference positions Pos-1 and Pos.
//   - Deletion: DelLen reference bases starting at Pos are skipped.
type Variant struct {
	Pos    int
	Kind   VariantKind
	Alt    dna.Sequence // SNP: one base; Insertion: inserted bases; unused for Deletion
	DelLen int          // Deletion only
}

// span returns the half-open reference interval the variant consumes.
func (v Variant) span() (start, end int) {
	switch v.Kind {
	case SNP:
		return v.Pos, v.Pos + 1
	case Insertion:
		return v.Pos, v.Pos
	case Deletion:
		return v.Pos, v.Pos + v.DelLen
	}
	return v.Pos, v.Pos
}

// site is one variation site in the pangenome's bubble chain: the shared
// prefix nodes leading into the site, followed by the allele branches.
// Allele 0 is always the reference allele.
type site struct {
	shared  []NodeID   // shared nodes preceding the bubble (possibly empty)
	alleles [][]NodeID // alleles[0] = ref branch; branches may be empty (pure deletion / skipped insertion)
}

// Pangenome is a variation graph built from a linear reference plus
// variants, retaining the bubble-chain structure so haplotypes can be
// derived as allele vectors.
type Pangenome struct {
	*Graph
	sites []site   // only sites with ≥2 alleles (real bubbles)
	tail  []NodeID // shared nodes after the final bubble
}

// NumSites returns the number of variation sites (bubbles).
func (p *Pangenome) NumSites() int { return len(p.sites) }

// NumAlleles returns the allele count at site i (≥ 2).
func (p *Pangenome) NumAlleles(i int) int { return len(p.sites[i].alleles) }

// HaplotypePath materialises the node path of the haplotype choosing
// alleles[i] at site i. Allele 0 is the reference allele. len(alleles) must
// equal NumSites().
func (p *Pangenome) HaplotypePath(alleles []int) ([]NodeID, error) {
	if len(alleles) != len(p.sites) {
		return nil, fmt.Errorf("vgraph: %d alleles for %d sites", len(alleles), len(p.sites))
	}
	var path []NodeID
	for i, s := range p.sites {
		path = append(path, s.shared...)
		a := alleles[i]
		if a < 0 || a >= len(s.alleles) {
			return nil, fmt.Errorf("vgraph: allele %d out of range at site %d (%d alleles)", a, i, len(s.alleles))
		}
		path = append(path, s.alleles[a]...)
	}
	path = append(path, p.tail...)
	if len(path) == 0 {
		return nil, errors.New("vgraph: empty haplotype path")
	}
	return path, nil
}

// BuildPangenome constructs a pangenome graph from a linear reference and a
// set of variants. Shared reference runs are chopped into nodes of at most
// nodeLen bases (VG uses 32 by default). Variants must not overlap; they are
// sorted internally.
func BuildPangenome(ref dna.Sequence, variants []Variant, nodeLen int) (*Pangenome, error) {
	if len(ref) == 0 {
		return nil, errors.New("vgraph: empty reference")
	}
	if nodeLen < 1 {
		return nil, fmt.Errorf("vgraph: nodeLen %d < 1", nodeLen)
	}
	vs := make([]Variant, len(variants))
	copy(vs, variants)
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Pos < vs[j].Pos })
	if err := checkVariants(ref, vs); err != nil {
		return nil, err
	}

	p := &Pangenome{Graph: &Graph{}}
	// addRun chops ref[start:end) into ≤nodeLen nodes with backbone coords.
	addRun := func(start, end int) ([]NodeID, error) {
		var ids []NodeID
		for pos := start; pos < end; pos += nodeLen {
			stop := pos + nodeLen
			if stop > end {
				stop = end
			}
			id, err := p.AddNode(ref[pos:stop].Clone())
			if err != nil {
				return nil, err
			}
			p.SetBackbone(id, int32(pos))
			ids = append(ids, id)
		}
		return ids, nil
	}

	cursor := 0 // next unconsumed reference position
	var pendingShared []NodeID
	for _, v := range vs {
		start, end := v.span()
		shared, err := addRun(cursor, start)
		if err != nil {
			return nil, err
		}
		pendingShared = append(pendingShared, shared...)

		var refBranch, altBranch []NodeID
		switch v.Kind {
		case SNP:
			id, err := p.AddNode(dna.Sequence{ref[v.Pos]})
			if err != nil {
				return nil, err
			}
			p.SetBackbone(id, int32(v.Pos))
			refBranch = []NodeID{id}
			alt, err := p.AddNode(v.Alt.Clone())
			if err != nil {
				return nil, fmt.Errorf("vgraph: SNP at %d: %w", v.Pos, err)
			}
			p.SetBackbone(alt, int32(v.Pos))
			altBranch = []NodeID{alt}
		case Insertion:
			ins, err := p.AddNode(v.Alt.Clone())
			if err != nil {
				return nil, fmt.Errorf("vgraph: insertion at %d: %w", v.Pos, err)
			}
			p.SetBackbone(ins, int32(v.Pos))
			altBranch = []NodeID{ins}
		case Deletion:
			refBranch, err = addRun(start, end)
			if err != nil {
				return nil, err
			}
		}
		p.sites = append(p.sites, site{
			shared:  pendingShared,
			alleles: [][]NodeID{refBranch, altBranch},
		})
		pendingShared = nil
		cursor = end
	}
	tail, err := addRun(cursor, len(ref))
	if err != nil {
		return nil, err
	}
	p.tail = tail

	if err := p.wireEdges(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkVariants validates bounds, overlap, and payloads.
func checkVariants(ref dna.Sequence, sorted []Variant) error {
	prevEnd := 0
	for i, v := range sorted {
		start, end := v.span()
		switch v.Kind {
		case SNP:
			if len(v.Alt) != 1 {
				return fmt.Errorf("vgraph: SNP %d must have exactly one alt base, got %d", i, len(v.Alt))
			}
			if start >= 0 && start < len(ref) && v.Alt[0] == ref[start] {
				return fmt.Errorf("vgraph: SNP %d alt equals reference base at %d", i, start)
			}
		case Insertion:
			if len(v.Alt) == 0 {
				return fmt.Errorf("vgraph: insertion %d has empty payload", i)
			}
		case Deletion:
			if v.DelLen < 1 {
				return fmt.Errorf("vgraph: deletion %d has length %d", i, v.DelLen)
			}
		default:
			return fmt.Errorf("vgraph: variant %d has unknown kind %d", i, v.Kind)
		}
		if start < 0 || end > len(ref) {
			return fmt.Errorf("vgraph: variant %d span [%d,%d) outside reference [0,%d)", i, start, end, len(ref))
		}
		// Require at least one shared reference base between variants so
		// every bubble has distinct anchor nodes (and insertions never sit
		// flush against another variant).
		if start < prevEnd+1 && i > 0 {
			return fmt.Errorf("vgraph: variant %d at %d overlaps or abuts previous (end %d)", i, start, prevEnd)
		}
		if start == 0 || end == len(ref) {
			return fmt.Errorf("vgraph: variant %d touches reference boundary; leave flanks", i)
		}
		prevEnd = end
	}
	return nil
}

// wireEdges connects the bubble chain: shared runs are chains, each site's
// branches connect its entry (last node before the bubble) to its exit
// (first node after it), with empty branches becoming direct edges.
func (p *Pangenome) wireEdges() error {
	chain := func(ids []NodeID) error {
		for i := 1; i < len(ids); i++ {
			if err := p.AddEdge(ids[i-1], ids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// entry = last node emitted before each site's bubble. Because
	// checkVariants enforces ≥1 shared base between variants and non-boundary
	// variants, every bubble has a non-empty entry and exit.
	var entry NodeID
	exitOf := func(i int) NodeID {
		// first node after bubble i: next site's shared run, else its first
		// non-empty branch... sites always followed by shared or tail.
		if i+1 < len(p.sites) && len(p.sites[i+1].shared) > 0 {
			return p.sites[i+1].shared[0]
		}
		if i+1 >= len(p.sites) && len(p.tail) > 0 {
			return p.tail[0]
		}
		return Invalid
	}
	for i, s := range p.sites {
		if err := chain(s.shared); err != nil {
			return err
		}
		if len(s.shared) > 0 {
			if entry != Invalid {
				if err := p.AddEdge(entry, s.shared[0]); err != nil {
					return err
				}
			}
			entry = s.shared[len(s.shared)-1]
		}
		if entry == Invalid {
			return fmt.Errorf("vgraph: site %d has no entry node", i)
		}
		exit := exitOf(i)
		if exit == Invalid {
			return fmt.Errorf("vgraph: site %d has no exit node", i)
		}
		for _, branch := range s.alleles {
			if len(branch) == 0 {
				if err := p.AddEdge(entry, exit); err != nil {
					return err
				}
				continue
			}
			if err := chain(branch); err != nil {
				return err
			}
			if err := p.AddEdge(entry, branch[0]); err != nil {
				return err
			}
			if err := p.AddEdge(branch[len(branch)-1], exit); err != nil {
				return err
			}
		}
		entry = Invalid // consumed; next site's shared run starts fresh
		if i+1 < len(p.sites) && len(p.sites[i+1].shared) == 0 {
			return fmt.Errorf("vgraph: site %d directly abuts site %d", i, i+1)
		}
	}
	return chain(p.tail)
}

// HaplotypeSeq spells the DNA of the haplotype with the given allele vector
// without materialising the path twice.
func (p *Pangenome) HaplotypeSeq(alleles []int) (dna.Sequence, error) {
	path, err := p.HaplotypePath(alleles)
	if err != nil {
		return nil, err
	}
	var out dna.Sequence
	for _, id := range path {
		out = append(out, p.Seq(id)...)
	}
	return out, nil
}
