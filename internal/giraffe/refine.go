package giraffe

import (
	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/vgraph"
)

// Tail refinement: Giraffe's alignment phase (§IV-B). When the best gapless
// extension does not cover the whole read — typically because a small indel
// interrupted it — the uncovered tails are aligned against the haplotype
// continuation with banded affine-gap DP (package align), recovering the
// full-read alignment the gapless kernel cannot express. Only the final
// Alignment is refined; the raw kernel extensions (the validation data)
// are never modified.

// tailSlack is how many extra reference bases beyond the tail length the
// refinement spells, leaving room for deletions.
const tailSlack = 12

// refineAlignment upgrades a partial-coverage alignment by tail alignment.
// Reads whose best gapless extension fell below the mapping floor are
// re-judged on the refined score — the alignment phase is what finally
// decides mapping, as in Giraffe. Returns the possibly-improved alignment.
func refineAlignment(ix *Indexes, reader gbwt.BiReader, read *dna.Read, al Alignment) Alignment {
	if al.Best.Score <= 0 {
		return al // no extension at all: nothing to refine
	}
	best := &al.Best
	oriented := read.Seq
	if best.Rev {
		oriented = read.Seq.RevComp()
	}
	al.RefinedScore = best.Score
	if int(best.Len()) == len(oriented) {
		return al // full coverage: nothing to refine
	}
	p := align.DefaultParams()
	refined := best.Score

	// Right tail: oriented[ReadEnd:] against the graph continuation.
	if tail := oriented[best.ReadEnd:]; len(tail) > 0 {
		endNode, endOff, ok := extensionEnd(ix.File.Graph, best)
		if ok {
			ref := spellForward(ix.File.Graph, reader.Fwd, endNode, endOff, len(tail)+tailSlack)
			if sc, ok := bestTailScore(tail, ref, p); ok {
				refined += sc
			}
		}
	}
	// Left tail: oriented[:ReadStart] against the graph upstream, both
	// reversed so the DP anchors at the extension boundary.
	if tail := oriented[:best.ReadStart]; len(tail) > 0 {
		ref := spellBackward(ix.File.Graph, reader.Rev, best.StartPos.Node, best.StartPos.Off, len(tail)+tailSlack)
		revTail := tail.Clone()
		reverseInPlace(revTail)
		reverseInPlace(ref)
		if sc, ok := bestTailScore(revTail, ref, p); ok {
			refined += sc
		}
	}
	al.RefinedScore = refined
	if !al.Mapped {
		floor := int32(float64(len(read.Seq)) * minMappedScoreFraction)
		if refined >= floor {
			// Rescued by the alignment phase: mapped, with conservative
			// confidence (no runner-up comparison at this stage).
			al.Mapped = true
			al.MappingQuality = 20
		}
	}
	return al
}

// bestTailScore aligns the tail against prefixes of ref, returning the best
// achievable global score; negative outcomes report false (the tail is
// soft-clipped instead, as real aligners do).
func bestTailScore(tail, ref dna.Sequence, p align.Params) (int32, bool) {
	if len(ref) == 0 {
		return 0, false
	}
	best := int32(-1 << 30)
	// Try the three most plausible reference lengths: exact, ±4 — enough to
	// absorb small indels without quadratic sweep.
	for _, dl := range []int{0, -4, 4} {
		l := len(tail) + dl
		if l < 1 {
			continue
		}
		if l > len(ref) {
			l = len(ref)
		}
		r := align.Global(tail, ref[:l], p)
		if r.Score > best {
			best = r.Score
		}
	}
	if best <= 0 {
		return 0, false
	}
	return best, true
}

// extensionEnd locates the graph position one past the extension's last
// matched base by walking its path.
func extensionEnd(g *vgraph.Graph, e *extend.Extension) (vgraph.NodeID, int32, bool) {
	need := int(e.Len())
	node := e.StartPos.Node
	off := int(e.StartPos.Off)
	for pi := 0; pi < len(e.Path); pi++ {
		node = e.Path[pi]
		if pi > 0 {
			off = 0
		}
		avail := g.SeqLen(node) - off
		if need <= avail {
			return node, int32(off + need), true
		}
		need -= avail
	}
	return vgraph.Invalid, 0, false
}

// spellForward collects up to n bases starting at (node, off), following the
// first haplotype-consistent successor at each node end.
func spellForward(g *vgraph.Graph, fwd *gbwt.CachedGBWT, node vgraph.NodeID, off int32, n int) dna.Sequence {
	out := make(dna.Sequence, 0, n)
	for len(out) < n {
		label := g.Seq(node)
		for int(off) < len(label) && len(out) < n {
			out = append(out, label[off])
			off++
		}
		if len(out) >= n {
			break
		}
		rec := fwd.Record(node)
		next := vgraph.Invalid
		if rec != nil {
			for _, e := range rec.Edges {
				if e.To != gbwt.Endmarker {
					next = e.To
					break
				}
			}
		}
		if next == vgraph.Invalid {
			break
		}
		node, off = next, 0
	}
	return out
}

// spellBackward collects up to n bases strictly before (node, off), in
// forward orientation, following the first haplotype predecessor (from the
// reverse-index record) at each node start.
func spellBackward(g *vgraph.Graph, rev *gbwt.CachedGBWT, node vgraph.NodeID, off int32, n int) dna.Sequence {
	// Collect backwards then reverse.
	out := make(dna.Sequence, 0, n)
	cur := node
	pos := off - 1
	for len(out) < n {
		label := g.Seq(cur)
		for pos >= 0 && len(out) < n {
			out = append(out, label[pos])
			pos--
		}
		if len(out) >= n {
			break
		}
		rec := rev.Record(cur)
		prev := vgraph.Invalid
		if rec != nil {
			for _, e := range rec.Edges {
				if e.To != gbwt.Endmarker {
					prev = e.To
					break
				}
			}
		}
		if prev == vgraph.Invalid {
			break
		}
		cur = prev
		pos = int32(g.SeqLen(cur)) - 1
	}
	reverseInPlace(out)
	return out
}

func reverseInPlace(s dna.Sequence) {
	for a, b := 0, len(s)-1; a < b; a, b = a+1, b-1 {
		s[a], s[b] = s[b], s[a]
	}
}
