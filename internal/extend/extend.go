// Package extend implements process_until_threshold_c, the most expensive
// critical function in Giraffe's mapping pipeline (up to 52% of computation
// time in the paper's characterisation, §IV-A): clusters are processed in
// descending score order until a score-fraction threshold stops the walk,
// and each processed cluster's seeds are extended into maximal gapless local
// alignments by walking the variation graph along GBWT haplotypes and
// comparing graph bases against the read — the seed-and-extend core where
// the actual read-to-pangenome comparison happens.
//
// Both the parent emulator (package giraffe) and the proxy (package core)
// call this same kernel; the paper's proxy was built by extracting exactly
// these functions, which is why its outputs match Giraffe's bit-for-bit.
//
// Memory: the kernel works in buffers its Env owns and reuses from read to
// read, and what it returns — the extensions of a read, each with its own
// Path and Mismatches — it carves from chunks it allocates a few hundred
// reads at a time and hands out once. The right walk keeps the branch it is
// on in two stacks and its best leaf so far in one slot instead of building
// a result per graph node; DESIGN.md §5a gives the ownership rules and the
// argument that this picks the same leaf as a best-of-children choice at
// every node.
package extend

import (
	"cmp"
	"slices"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// Params tunes the extension kernel. Zero values are replaced by defaults
// mirroring Giraffe's short-read configuration at this scale.
type Params struct {
	// MaxMismatches bounds mismatches per extension (Giraffe default 4).
	MaxMismatches int
	// ScoreFraction is the threshold c: clusters scoring below
	// ScoreFraction × best-cluster-score are not processed.
	ScoreFraction float64
	// MinClusters are always processed regardless of the threshold.
	MinClusters int
	// MaxClusters caps the clusters processed per read.
	MaxClusters int
	// MaxSeedsPerCluster caps extension starts per cluster.
	MaxSeedsPerCluster int
	// Scoring constants: match bonus, mismatch penalty (positive), and the
	// bonus awarded per read end reached.
	MatchScore      int32
	MismatchPenalty int32
	FullLengthBonus int32
}

// DefaultParams returns the kernel defaults.
func DefaultParams() Params {
	return Params{
		MaxMismatches:      4,
		ScoreFraction:      0.6,
		MinClusters:        2,
		MaxClusters:        16,
		MaxSeedsPerCluster: 4,
		MatchScore:         1,
		MismatchPenalty:    4,
		FullLengthBonus:    5,
	}
}

// normalize fills zero fields with defaults.
func (p Params) normalize() Params {
	d := DefaultParams()
	if p.MaxMismatches == 0 {
		p.MaxMismatches = d.MaxMismatches
	}
	if p.ScoreFraction == 0 {
		p.ScoreFraction = d.ScoreFraction
	}
	if p.MinClusters == 0 {
		p.MinClusters = d.MinClusters
	}
	if p.MaxClusters == 0 {
		p.MaxClusters = d.MaxClusters
	}
	if p.MaxSeedsPerCluster == 0 {
		p.MaxSeedsPerCluster = d.MaxSeedsPerCluster
	}
	if p.MatchScore == 0 {
		p.MatchScore = d.MatchScore
	}
	if p.MismatchPenalty == 0 {
		p.MismatchPenalty = d.MismatchPenalty
	}
	if p.FullLengthBonus == 0 {
		p.FullLengthBonus = d.FullLengthBonus
	}
	return p
}

// Extension is one maximal gapless local alignment: the proxy's raw output
// (§V: "offsets and scores of each match").
type Extension struct {
	// StartPos is the graph position aligned to the oriented read's
	// ReadStart base.
	StartPos vgraph.Position
	// Path is the node walk the extension covers, in order.
	Path []vgraph.NodeID
	// ReadStart/ReadEnd delimit the matched interval of the oriented read
	// (the reverse complement when Rev).
	ReadStart, ReadEnd int32
	// Mismatches lists the oriented-read offsets that mismatch the graph.
	Mismatches []int32
	// Score under the kernel's scoring constants.
	Score int32
	// Rev marks reverse-strand mappings.
	Rev bool
}

// Len returns the matched read length.
func (e *Extension) Len() int32 { return e.ReadEnd - e.ReadStart }

// Env bundles the immutable structures the kernel walks plus the per-worker
// bidirectional GBWT readers, instrumentation probe (all of which may differ
// across workers) and the kernel's working memory. The bidirectional readers
// let both extension directions stay haplotype-constrained, as Giraffe's
// extender does (§IV-B: "Giraffe will try to extend seed alignments in both
// directions"). Like its readers, an Env serves one goroutine at a time; a
// caller that maps many reads keeps one Env and repoints its fields, so the
// buffers are sized once and reused.
type Env struct {
	Graph *vgraph.Graph
	Bi    gbwt.BiReader
	Probe counters.Probe // nil disables accounting

	s scratch
}

// scratch is the working memory of the extension kernel, so that mapping a
// read allocates only what the caller keeps. The zero value is ready to use;
// buffers are sized once per read and written by index.
//
// Ownership: the working buffers belong to the kernel and are dead between
// calls. ProcessUntilThresholdC copies what survives — the exact-size
// []Extension, and a Path and Mismatches per extension — into windows carved
// off the three chunks, which the caller owns: a window is handed out once
// and never again, so a result is never changed by a later call on the same
// Env. What a caller pays for that is retention, not aliasing: one kept
// result keeps its chunk (at most chunkReads reads' worth) reachable.
type scratch struct {
	// Right walk: the mismatch offsets and nodes of the branch being walked
	// (stacks: a node's entries sit above its parent's) and a copy of the
	// best leaf offered so far.
	curMism, bestMism []int32
	curPath, bestPath []vgraph.NodeID
	best              rightLeaf
	// Left walk (greedy, a single branch), in walk order.
	leftMism []int32
	leftPath []vgraph.NodeID
	left     leftEnd

	picked []int        // pickSeeds' sorted copy of a cluster's seed indices
	rev    dna.Sequence // the read's reverse complement
	out    []Extension  // the extensions kept so far

	// What is left of the chunks results are carved from.
	exts  []Extension
	nodes []vgraph.NodeID
	offs  []int32
}

// Chunk sizes, in elements: a chunk doubles from its first size up to what
// about chunkReads reads return (one extension of eight nodes and a mismatch
// or two each, at the defaults), so a short-lived Env wastes little and a
// long-lived one allocates three objects per few hundred reads.
const (
	chunkReads = 256
	firstExts  = 8
	maxExts    = chunkReads
	firstNodes = 64
	maxNodes   = 8 * chunkReads
	firstOffs  = 16
	maxOffs    = 2 * chunkReads
)

// carve returns a window of n elements that no other call gets: the next n
// of *chunk, clamped to its length so an append by the caller cannot reach
// the neighbour, or the head of a new chunk — twice the last one's size,
// between first and limit, at least n — when the current one has no room.
// What is left of an abandoned chunk is never handed out.
//
//minigiraffe:hot
func carve[T any](chunk *[]T, n, first, limit int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(min(2*cap(c), limit), first, n))
	}
	lo := len(c)
	c = c[:lo+n]
	*chunk = c
	return c[lo : lo+n : lo+n]
}

// rightLeaf is where one branch of the right walk stopped: at the mismatch
// budget, at the read's end, or at a node no haplotype continues from.
type rightLeaf struct {
	readPos      int32 // exclusive end of the matched read interval
	nMism, nPath int   // depth of the mismatch and path stacks at the leaf
	reached      bool  // read end reached
	ok           bool  // a leaf has been offered
}

// leftEnd is where the left walk stopped.
type leftEnd struct {
	readPos      int32           // inclusive start of the matched read interval
	pos          vgraph.Position // graph position of the leftmost matched base
	nMism, nPath int
	reached      bool // read start reached
}

// size readies the scratch for one read. A right walk enters at most one
// node per remaining read base (labels are non-empty, and a node is entered
// only with read left to match), a left walk likewise, and the two together
// hold at most MaxMismatches mismatches; the candidates number at most
// MaxClusters×MaxSeedsPerCluster.
func (s *scratch) size(readLen int, p Params) {
	if n := readLen + 1; len(s.curPath) < n {
		nodes := make([]vgraph.NodeID, 3*n)
		s.curPath, s.bestPath, s.leftPath = nodes[:n], nodes[n:2*n], nodes[2*n:]
	}
	if n := p.MaxMismatches; len(s.curMism) < n {
		offs := make([]int32, 3*n)
		s.curMism, s.bestMism, s.leftMism = offs[:n], offs[n:2*n], offs[2*n:]
	}
	if n := p.MaxClusters * p.MaxSeedsPerCluster; len(s.out) < n {
		s.out = make([]Extension, n)
	}
}

// sameAlignment reports whether two extensions are the same alignment for
// deduplication: same start position, read interval and strand. Validation
// (core.Validate) adds the score to the same identity.
func sameAlignment(a, b *Extension) bool {
	return a.StartPos == b.StartPos && a.ReadStart == b.ReadStart && a.ReadEnd == b.ReadEnd && a.Rev == b.Rev
}

// walk is the per-read state every level of the extension walks shares: it
// lives on ProcessUntilThresholdC's stack and is passed down by pointer, so
// the recursion carries only what changes from node to node.
type walk struct {
	env     *Env
	s       *scratch
	r       dna.Sequence // the oriented read
	p       Params
	readIdx int
}

// ProcessUntilThresholdC runs the extension stage for one read: clusters
// (score-descending, as produced by cluster.ClusterSeeds) are processed
// until the score threshold or the cluster cap stops the loop; every
// processed cluster's best seeds are extended and the deduplicated
// extensions are returned sorted by descending score (ties broken by
// position for determinism). readIdx identifies the read for the probe's
// address map. The result is the caller's: it shares no memory with
// env or with any other call's result.
//
//minigiraffe:hot
func ProcessUntilThresholdC(env *Env, read *dna.Read, ss []seeds.Seed, clusters []cluster.Cluster, p Params, readIdx int) []Extension {
	p = p.normalize()
	if len(clusters) == 0 {
		return nil
	}
	s := &env.s
	s.size(len(read.Seq), p)
	w := walk{env: env, s: s, p: p, readIdx: readIdx}
	best := clusters[0].Score
	fwd := read.Seq
	haveRev := false
	// Deduplicate via a linear scan over the extensions kept so far: the
	// candidate set is capped at MaxClusters×MaxSeedsPerCluster (64 at the
	// defaults), so a scan beats hashing and keeps this function map- and
	// Sprintf-free.
	kept := 0

	processed := 0
	for _, cl := range clusters {
		if processed >= p.MaxClusters {
			break
		}
		if processed >= p.MinClusters && cl.Score < p.ScoreFraction*best {
			break
		}
		processed++
		if env.Probe != nil {
			env.Probe.Instr(32)
		}
		for _, si := range s.pickSeeds(ss, cl.SeedIdx, p.MaxSeedsPerCluster) {
			seed := ss[si]
			w.r = fwd
			if seed.Rev {
				if !haveRev {
					if cap(s.rev) < len(fwd) {
						s.rev = make(dna.Sequence, len(fwd))
					}
					s.rev = s.rev[:len(fwd)]
					fwd.RevCompInto(s.rev)
					haveRev = true
					if env.Probe != nil {
						env.Probe.Instr(int64(len(fwd)) * 2)
					}
				}
				w.r = s.rev
			}
			ext, ok := w.extendSeed(seed)
			if !ok {
				continue
			}
			dup := false
			for k := range s.out[:kept] {
				if sameAlignment(&s.out[k], &ext) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			// Only a candidate that survives gets a Path and Mismatches of
			// its own; until here it lived in the scratch.
			s.materialise(&ext)
			s.out[kept] = ext
			kept++
		}
	}
	if kept == 0 {
		return []Extension{}
	}
	out := carve(&s.exts, kept, firstExts, maxExts)
	copy(out, s.out[:kept])
	clear(s.out[:kept]) // the caller's slices are not the scratch's to keep alive
	slices.SortFunc(out, func(a, b Extension) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if a.StartPos.Node != b.StartPos.Node {
			return cmp.Compare(a.StartPos.Node, b.StartPos.Node)
		}
		if a.StartPos.Off != b.StartPos.Off {
			return cmp.Compare(a.StartPos.Off, b.StartPos.Off)
		}
		return cmp.Compare(a.ReadStart, b.ReadStart)
	})
	return out
}

// pickSeeds selects up to max seed indices from the cluster, preferring
// higher scores then lower read offsets (deterministic). The result is a
// window of the scratch, valid until the next call.
func (s *scratch) pickSeeds(ss []seeds.Seed, idxs []int, max int) []int {
	if cap(s.picked) < len(idxs) {
		s.picked = make([]int, len(idxs))
	}
	sorted := s.picked[:len(idxs)]
	copy(sorted, idxs)
	slices.SortFunc(sorted, func(a, b int) int {
		sa, sb := ss[a], ss[b]
		if sa.Score != sb.Score {
			return cmp.Compare(sb.Score, sa.Score)
		}
		if sa.ReadOff != sb.ReadOff {
			return cmp.Compare(sa.ReadOff, sb.ReadOff)
		}
		return cmp.Compare(a, b)
	})
	if len(sorted) > max {
		sorted = sorted[:max]
	}
	return sorted
}

// extendSeed extends a single seed bidirectionally, leaving both walks in
// the scratch and returning the extension without its Path and Mismatches
// (see materialise). Returns false if the anchor itself is invalid (position
// outside the node).
//
//minigiraffe:hot
func (w *walk) extendSeed(seed seeds.Seed) (Extension, bool) {
	env, s, p := w.env, w.s, &w.p
	g := env.Graph
	node := seed.Pos.Node
	if !g.Has(node) || int(seed.Pos.Off) >= g.SeqLen(node) {
		return Extension{}, false
	}
	if int(seed.ReadOff) >= len(w.r) || seed.ReadOff < 0 {
		return Extension{}, false
	}

	// The seed's single-node match anchors a bidirectional search state.
	state := gbwt.BiState{
		Fwd: env.Bi.Fwd.Base().FullState(node),
		Rev: env.Bi.Rev.Base().FullState(node),
	}
	if state.Empty() {
		return Extension{}, false
	}
	// Right: from the anchor base forward, haplotype-constrained.
	s.best.ok = false
	w.right(seed.ReadOff, node, seed.Pos.Off, state, 0, 0)
	right := &s.best

	// Left: from the base before the anchor backward, haplotype-constrained
	// through the reverse index. The left walk restricts the same seed
	// state (its haplotypes are a superset of the right walk's survivors,
	// which is what Giraffe's extender tracks per direction).
	w.left(seed.ReadOff-1, node, seed.Pos.Off-1, state, p.MaxMismatches-right.nMism)
	left := &s.left

	ext := Extension{
		StartPos:  left.pos,
		ReadStart: left.readPos,
		ReadEnd:   right.readPos,
		Rev:       seed.Rev,
	}
	nMism := int32(left.nMism + right.nMism)
	ext.Score = score1(ext.Len(), nMism, p)
	if left.reached {
		ext.Score += p.FullLengthBonus
	}
	if right.reached {
		ext.Score += p.FullLengthBonus
	}
	return ext, true
}

// materialise gives the extension extendSeed just returned a Path and
// Mismatches of its own, copied out of the scratch: the left walk's entries
// were collected walking backward (and exclude the seed node), the right
// walk's start with the seed node. Mismatches stays nil when the alignment
// is mismatch-free.
func (s *scratch) materialise(ext *Extension) {
	left, right := &s.left, &s.best
	if n := left.nMism + right.nMism; n > 0 {
		mism := carve(&s.offs, n, firstOffs, maxOffs)
		for i := 0; i < left.nMism; i++ {
			mism[i] = s.leftMism[left.nMism-1-i]
		}
		copy(mism[left.nMism:], s.bestMism[:right.nMism])
		ext.Mismatches = mism
	}
	path := carve(&s.nodes, left.nPath+right.nPath, firstNodes, maxNodes)
	for i := 0; i < left.nPath; i++ {
		path[i] = s.leftPath[left.nPath-1-i]
	}
	copy(path[left.nPath:], s.bestPath[:right.nPath])
	ext.Path = path
}

// right walks the graph forward from (node, off) matching r[i:], following
// GBWT haplotypes and branching at node boundaries. It keeps no per-node
// result: the branch being walked lives on the scratch's mismatch and path
// stacks (nMism and nPath are their depths on entry), and every leaf — the
// mismatch budget, the read's end, a dead end — is offered to the scratch's
// single best-leaf slot. The path includes the starting node.
//
//minigiraffe:hot
func (w *walk) right(i int32, node vgraph.NodeID, off int32, state gbwt.BiState, nMism, nPath int) {
	env, s, r := w.env, w.s, w.r
	s.curPath[nPath] = node
	nPath++
	label := env.Graph.Seq(node)
	if env.Probe != nil {
		n := int32(len(label)) - off
		if rem := int32(len(r)) - i; rem < n {
			n = rem
		}
		if n > 0 {
			env.Probe.Access(counters.NodeSeqAddr(uint32(node), off), int(n))
			env.Probe.Access(counters.ReadAddr(w.readIdx, i), int(n))
			env.Probe.Instr(int64(n) * 6)
		}
	}
	for int(off) < len(label) && int(i) < len(r) {
		if label[off] != r[i] {
			if nMism+1 > w.p.MaxMismatches {
				// Stop before consuming the over-budget mismatch.
				w.offerRight(i, nMism, nPath, false)
				return
			}
			s.curMism[nMism] = i
			nMism++
		}
		off++
		i++
	}
	if int(i) >= len(r) {
		w.offerRight(i, nMism, nPath, true)
		return
	}
	// Node exhausted: branch along haplotype-consistent successors.
	rec := env.Bi.Fwd.Record(state.Fwd.Node)
	if env.Probe != nil {
		env.Probe.Access(counters.RecordAddr(uint32(state.Fwd.Node)), counters.RecordStride)
		env.Probe.Instr(20)
	}
	branched := false
	if rec != nil {
		for _, e := range rec.Edges {
			if e.To == gbwt.Endmarker {
				continue
			}
			next := gbwt.ExtendRightWith(env.Bi, state, e.To)
			if next.Empty() {
				continue
			}
			branched = true
			w.right(i, e.To, 0, next, nMism, nPath)
		}
	}
	if !branched {
		// Dead end: the extension stops at the node boundary.
		w.offerRight(i, nMism, nPath, false)
	}
}

// offerRight makes the branch on the stacks the best leaf if it beats the
// one held: higher score, then longer reach; on a full tie the earlier leaf
// stays.
//
// Why one global slot equals a best-of-children choice at every node: the
// leaves below a node share the stack up to that node, and score1 is linear
// in the mismatch count, so ranking them by (score over the whole branch,
// reach) orders them exactly as ranking by (score from that node on, reach)
// does — the shared prefix shifts every score by the same constant. A
// tournament that keeps, at each node, the first-best of its children's
// winners therefore ends with the first-best leaf of the whole walk in
// depth-first order, which is what a single slot with a strict comparison
// keeps. Edges are visited in strictly ascending To (the record decoder
// refuses any other order), so "first in depth-first order" is also
// "smallest next node at the first point two tied branches part".
func (w *walk) offerRight(readPos int32, nMism, nPath int, reached bool) {
	s := w.s
	if b := &s.best; b.ok {
		sc, bsc := score1(readPos, int32(nMism), &w.p), score1(b.readPos, int32(b.nMism), &w.p)
		if sc < bsc || (sc == bsc && readPos <= b.readPos) {
			return
		}
	}
	s.best = rightLeaf{readPos: readPos, nMism: nMism, nPath: nPath, reached: reached, ok: true}
	copy(s.bestMism, s.curMism[:nMism])
	copy(s.bestPath, s.curPath[:nPath])
}

func score1(reach, mism int32, p *Params) int32 {
	return (reach-mism)*p.MatchScore - mism*p.MismatchPenalty
}

// left walks the graph backward from (node, off) matching r[..i] leftward,
// into the scratch's left buffers and s.left. Predecessor steps are fully
// haplotype-constrained: the bidirectional state is extended left through
// the reverse index, so only walks some indexed haplotype actually takes
// survive. s.left.pos is the graph position of the leftmost matched base;
// readPos is the inclusive read start; the path lists nodes *before* the
// seed node, in walk (right-to-left) order.
//
//minigiraffe:hot
func (w *walk) left(i int32, node vgraph.NodeID, off int32, state gbwt.BiState, mismBudget int) {
	env, s, r := w.env, w.s, w.r
	g := env.Graph
	nMism, nPath := 0, 0
	curNode, curOff := node, off
	for {
		label := g.Seq(curNode)
		if env.Probe != nil && curOff >= 0 && i >= 0 {
			n := curOff + 1
			if i+1 < n {
				n = i + 1
			}
			if n > 0 {
				env.Probe.Access(counters.NodeSeqAddr(uint32(curNode), curOff-n+1), int(n))
				env.Probe.Access(counters.ReadAddr(w.readIdx, i-n+1), int(n))
				env.Probe.Instr(int64(n) * 6)
			}
		}
		for curOff >= 0 && i >= 0 {
			if label[curOff] != r[i] {
				if nMism+1 > mismBudget {
					s.left = leftEnd{
						readPos: i + 1,
						pos:     vgraph.Position{Node: curNode, Off: curOff + 1},
						nMism:   nMism,
						nPath:   nPath,
					}
					return
				}
				s.leftMism[nMism] = i
				nMism++
			}
			curOff--
			i--
		}
		if i < 0 {
			s.left = leftEnd{
				pos:     vgraph.Position{Node: curNode, Off: curOff + 1},
				nMism:   nMism,
				nPath:   nPath,
				reached: true,
			}
			return
		}
		// Node start reached: step to the best haplotype-consistent
		// predecessor. Greedy: choose the predecessor whose tail matches the
		// read furthest (deterministic by node id on ties).
		pred, next := bestPredecessor(env, r, i, state)
		if pred == vgraph.Invalid {
			s.left = leftEnd{
				readPos: i + 1,
				pos:     vgraph.Position{Node: curNode, Off: 0},
				nMism:   nMism,
				nPath:   nPath,
			}
			return
		}
		s.leftPath[nPath] = pred
		nPath++
		state = next
		curNode = pred
		curOff = int32(g.SeqLen(pred)) - 1
	}
}

// bestPredecessor returns the haplotype-consistent predecessor of the
// state's first node whose label tail best matches the read ending at i,
// together with the left-extended state, or Invalid when no haplotype
// continues leftward.
//
//minigiraffe:hot
func bestPredecessor(env *Env, r dna.Sequence, i int32, state gbwt.BiState) (vgraph.NodeID, gbwt.BiState) {
	g := env.Graph
	rec := env.Bi.Rev.Record(state.Rev.Node)
	if env.Probe != nil {
		env.Probe.Access(counters.RecordRevAddr(uint32(state.Rev.Node)), counters.RecordStride)
		env.Probe.Instr(20)
	}
	if rec == nil {
		return vgraph.Invalid, state
	}
	best := vgraph.Invalid
	var bestState gbwt.BiState
	bestMatch := int32(-1)
	for _, e := range rec.Edges {
		u := e.To
		if u == gbwt.Endmarker {
			continue
		}
		next := gbwt.ExtendLeftWith(env.Bi, state, u)
		if next.Empty() {
			continue
		}
		// Count matching tail bases (up to 8) for the greedy choice.
		label := g.Seq(u)
		m := int32(0)
		ri, li := i, int32(len(label))-1
		for m < 8 && ri >= 0 && li >= 0 && label[li] == r[ri] {
			m++
			ri--
			li--
		}
		if env.Probe != nil {
			env.Probe.Instr(int64(m+1) * 6)
		}
		if m > bestMatch {
			bestMatch = m
			best = u
			bestState = next
		}
	}
	return best, bestState
}
