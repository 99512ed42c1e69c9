package extend

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/minimizer"
	"repro/internal/seeds"
	"repro/internal/snarl"
	"repro/internal/vgraph"
)

// fixture bundles a pangenome, its GBWT, minimizer and distance indices.
type fixture struct {
	pg    *vgraph.Pangenome
	index *gbwt.GBWT
	bi    *gbwt.Bidirectional
	minIx *minimizer.Index
	dist  *snarl.Tree
	haps  [][]vgraph.NodeID
	seqs  []dna.Sequence
}

func buildFixture(t testing.TB, seed int64, refLen, nHaps int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(dna.Sequence, refLen)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 60; pos < refLen-60; pos += 70 + rng.Intn(70) {
		switch rng.Intn(3) {
		case 0:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
		case 1:
			ins := make(dna.Sequence, 1+rng.Intn(5))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 2:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(6)})
		}
	}
	pg, err := vgraph.BuildPangenome(ref, vs, 16)
	if err != nil {
		t.Fatal(err)
	}
	return finishFixture(t, pg, rng, nHaps)
}

// finishFixture draws nHaps random haplotypes through pg and indexes them.
func finishFixture(t testing.TB, pg *vgraph.Pangenome, rng *rand.Rand, nHaps int) *fixture {
	t.Helper()
	var err error
	f := &fixture{pg: pg}
	for h := 0; h < nHaps; h++ {
		alleles := make([]int, pg.NumSites())
		for i := range alleles {
			alleles[i] = rng.Intn(pg.NumAlleles(i))
		}
		path, err := pg.HaplotypePath(alleles)
		if err != nil {
			t.Fatal(err)
		}
		f.haps = append(f.haps, path)
		seq, err := pg.HaplotypeSeq(alleles)
		if err != nil {
			t.Fatal(err)
		}
		f.seqs = append(f.seqs, seq)
	}
	f.index, err = gbwt.New(f.haps)
	if err != nil {
		t.Fatal(err)
	}
	f.bi, err = gbwt.FromForward(f.index, f.haps)
	if err != nil {
		t.Fatal(err)
	}
	f.minIx, err = minimizer.Build(pg.Graph, f.haps, minimizer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.dist, err = snarl.Decompose(pg.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mapRead runs the full kernel pipeline for a read.
func (f *fixture) mapRead(t testing.TB, read *dna.Read, capacity int, probe counters.Probe) []Extension {
	t.Helper()
	ss, err := seeds.Extract(f.minIx, read)
	if err != nil {
		t.Fatal(err)
	}
	cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), probe, 0)
	env := &Env{
		Graph: f.pg.Graph,
		Bi:    f.bi.NewBiReader(capacity),
		Probe: probe,
	}
	return ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
}

// spellExtension walks the extension's path from StartPos, returning the
// graph bases it covers.
func (f *fixture) spellExtension(t *testing.T, e *Extension) dna.Sequence {
	t.Helper()
	g := f.pg.Graph
	var out dna.Sequence
	need := int(e.Len())
	for pi, node := range e.Path {
		label := g.Seq(node)
		start := 0
		if pi == 0 {
			if node != e.StartPos.Node {
				t.Fatalf("path[0]=%d but StartPos.Node=%d", node, e.StartPos.Node)
			}
			start = int(e.StartPos.Off)
		}
		for o := start; o < len(label) && len(out) < need; o++ {
			out = append(out, label[o])
		}
		if len(out) >= need {
			break
		}
	}
	return out
}

func TestExactReadFullExtension(t *testing.T) {
	f := buildFixture(t, 1, 4000, 6)
	hap := 2
	read := &dna.Read{Name: "r0", Seq: f.seqs[hap][500:620].Clone(), Fragment: -1}
	exts := f.mapRead(t, read, 256, nil)
	if len(exts) == 0 {
		t.Fatal("no extensions for exact read")
	}
	best := exts[0]
	if best.ReadStart != 0 || best.ReadEnd != int32(len(read.Seq)) {
		t.Errorf("best extension covers [%d,%d), want full read [0,%d)", best.ReadStart, best.ReadEnd, len(read.Seq))
	}
	if len(best.Mismatches) != 0 {
		t.Errorf("exact read has %d mismatches: %v", len(best.Mismatches), best.Mismatches)
	}
	wantScore := int32(len(read.Seq)) + 2*5 // all matches + both full-length bonuses
	if best.Score != wantScore {
		t.Errorf("Score = %d, want %d", best.Score, wantScore)
	}
	if best.Rev {
		t.Error("forward read mapped as reverse")
	}
}

func TestReadWithOneError(t *testing.T) {
	f := buildFixture(t, 2, 4000, 6)
	read := &dna.Read{Name: "r1", Seq: f.seqs[0][1000:1120].Clone(), Fragment: -1}
	read.Seq[60] = (read.Seq[60] + 1) & 3 // plant one error mid-read
	exts := f.mapRead(t, read, 256, nil)
	if len(exts) == 0 {
		t.Fatal("no extensions")
	}
	best := exts[0]
	if best.ReadStart != 0 || best.ReadEnd != int32(len(read.Seq)) {
		t.Fatalf("extension covers [%d,%d), want full", best.ReadStart, best.ReadEnd)
	}
	if len(best.Mismatches) != 1 || best.Mismatches[0] != 60 {
		t.Errorf("Mismatches = %v, want [60]", best.Mismatches)
	}
	wantScore := int32(len(read.Seq)-1) - 4 + 10
	if best.Score != wantScore {
		t.Errorf("Score = %d, want %d", best.Score, wantScore)
	}
}

func TestReverseStrandRead(t *testing.T) {
	f := buildFixture(t, 3, 4000, 6)
	fwd := &dna.Read{Name: "f", Seq: f.seqs[1][700:820].Clone(), Fragment: -1}
	rev := &dna.Read{Name: "r", Seq: f.seqs[1][700:820].RevComp(), Fragment: -1}
	fe := f.mapRead(t, fwd, 256, nil)
	re := f.mapRead(t, rev, 256, nil)
	if len(fe) == 0 || len(re) == 0 {
		t.Fatal("missing extensions")
	}
	if fe[0].Rev {
		t.Error("forward read marked Rev")
	}
	if !re[0].Rev {
		t.Error("reverse read not marked Rev")
	}
	// Both strands anchor the same graph region with the same score.
	if fe[0].StartPos != re[0].StartPos {
		t.Errorf("start positions differ: %v vs %v", fe[0].StartPos, re[0].StartPos)
	}
	if fe[0].Score != re[0].Score {
		t.Errorf("scores differ: %d vs %d", fe[0].Score, re[0].Score)
	}
}

func TestExtensionSpellsRead(t *testing.T) {
	f := buildFixture(t, 4, 5000, 8)
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		hap := rng.Intn(len(f.seqs))
		start := rng.Intn(len(f.seqs[hap]) - 130)
		seq := f.seqs[hap][start : start+120].Clone()
		nErr := rng.Intn(3)
		for e := 0; e < nErr; e++ {
			p := rng.Intn(len(seq))
			seq[p] = (seq[p] + 1 + dna.Base(rng.Intn(3))) & 3
		}
		read := &dna.Read{Name: "t", Seq: seq, Fragment: -1}
		exts := f.mapRead(t, read, 256, nil)
		for _, e := range exts {
			oriented := read.Seq
			if e.Rev {
				oriented = read.Seq.RevComp()
			}
			spelled := f.spellExtension(t, &e)
			if int32(len(spelled)) != e.Len() {
				t.Fatalf("trial %d: spelled %d bases for extension of length %d", trial, len(spelled), e.Len())
			}
			mismSet := map[int32]bool{}
			for _, m := range e.Mismatches {
				mismSet[m] = true
			}
			for j := int32(0); j < e.Len(); j++ {
				ro := e.ReadStart + j
				if mismSet[ro] {
					if spelled[j] == oriented[ro] {
						t.Fatalf("trial %d: offset %d reported mismatch but matches", trial, ro)
					}
				} else if spelled[j] != oriented[ro] {
					t.Fatalf("trial %d: offset %d mismatches but not reported", trial, ro)
				}
			}
			// Score formula holds.
			want := (e.Len()-int32(len(e.Mismatches)))*1 - int32(len(e.Mismatches))*4
			if e.ReadStart == 0 {
				want += 5
			}
			if e.ReadEnd == int32(len(oriented)) {
				want += 5
			}
			if e.Score != want {
				t.Fatalf("trial %d: score %d, want %d", trial, e.Score, want)
			}
		}
	}
}

func TestCacheCapacityDoesNotChangeOutput(t *testing.T) {
	f := buildFixture(t, 5, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[3][2000:2120].Clone(), Fragment: -1}
	var results [][]Extension
	for _, capacity := range []int{0, 2, 64, 1024} {
		results = append(results, f.mapRead(t, read, capacity, nil))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("capacity variant %d changed the mapping output", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	f := buildFixture(t, 6, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[0][100:220].Clone(), Fragment: -1}
	a := f.mapRead(t, read, 256, nil)
	b := f.mapRead(t, read, 256, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("kernel output not deterministic")
	}
}

func TestThresholdCStopsLowClusters(t *testing.T) {
	f := buildFixture(t, 7, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[0][300:420].Clone(), Fragment: -1}
	ss, err := seeds.Extract(f.minIx, read)
	if err != nil {
		t.Fatal(err)
	}
	cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
	if len(cls) == 0 {
		t.Skip("read produced a single cluster")
	}
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	// With MaxClusters=1 only the top cluster is extended.
	one := ProcessUntilThresholdC(env, read, ss, cls, Params{MaxClusters: 1, MinClusters: 1}, 0)
	all := ProcessUntilThresholdC(env, read, ss, cls, Params{MaxClusters: 1000, MinClusters: 1000}, 0)
	if len(one) > len(all) {
		t.Errorf("restricted run produced more extensions (%d) than full (%d)", len(one), len(all))
	}
}

func TestMaxMismatchBudget(t *testing.T) {
	f := buildFixture(t, 8, 4000, 6)
	seq := f.seqs[0][1500:1620].Clone()
	// Plant many errors in the right half: extension must stop early.
	for p := 70; p < 110; p += 4 {
		seq[p] = (seq[p] + 1) & 3
	}
	read := &dna.Read{Name: "r", Seq: seq, Fragment: -1}
	exts := f.mapRead(t, read, 256, nil)
	for _, e := range exts {
		if len(e.Mismatches) > 4 {
			t.Fatalf("extension has %d mismatches, budget is 4", len(e.Mismatches))
		}
	}
}

func TestEmptyClusterList(t *testing.T) {
	f := buildFixture(t, 9, 4000, 4)
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	read := &dna.Read{Name: "r", Seq: f.seqs[0][:120].Clone(), Fragment: -1}
	if out := ProcessUntilThresholdC(env, read, nil, nil, Params{}, 0); out != nil {
		t.Errorf("extensions from no clusters: %v", out)
	}
}

func TestProbeCountsWork(t *testing.T) {
	f := buildFixture(t, 10, 4000, 6)
	read := &dna.Read{Name: "r", Seq: f.seqs[2][900:1020].Clone(), Fragment: -1}
	h := counters.NewDefaultHierarchy()
	f.mapRead(t, read, 256, h)
	c := h.Snapshot(counters.DefaultCycleModel)
	if c.Instr == 0 || c.L1DA == 0 {
		t.Errorf("probe recorded nothing: %+v", c)
	}
}

// TestExtensionKey checks the identity deduplication keys extensions on:
// start position, read interval and strand distinguish two extensions; the
// path, mismatches and score do not.
func TestExtensionKey(t *testing.T) {
	base := Extension{StartPos: vgraph.Position{Node: 5, Off: 3}, ReadStart: 0, ReadEnd: 100, Score: 90}
	same := base
	same.Path = []vgraph.NodeID{5, 6}
	same.Mismatches = []int32{40}
	same.Score = 80
	if !sameAlignment(&base, &same) {
		t.Errorf("path, mismatches and score changed the identity: %+v vs %+v", base, same)
	}
	for name, change := range map[string]func(e *Extension){
		"node":       func(e *Extension) { e.StartPos.Node = 6 },
		"offset":     func(e *Extension) { e.StartPos.Off = 4 },
		"read start": func(e *Extension) { e.ReadStart = 1 },
		"read end":   func(e *Extension) { e.ReadEnd = 99 },
		"strand":     func(e *Extension) { e.Rev = true },
	} {
		other := base
		change(&other)
		if sameAlignment(&base, &other) || sameAlignment(&other, &base) {
			t.Errorf("%s changed but the extensions are still the same alignment", name)
		}
	}
}

func TestParamsNormalize(t *testing.T) {
	p := Params{}.normalize()
	if !reflect.DeepEqual(p, DefaultParams()) {
		t.Errorf("normalize(zero) = %+v, want defaults", p)
	}
	custom := Params{MaxMismatches: 2}.normalize()
	if custom.MaxMismatches != 2 || custom.MaxClusters != DefaultParams().MaxClusters {
		t.Errorf("partial normalize wrong: %+v", custom)
	}
}

// The reference kernel: the per-level tournament the scratch-backed walk
// replaced, kept here verbatim (allocation per node and all) as an oracle
// that shares none of the new walk's code — only bestPredecessor, which did
// not change. refProcess is what ProcessUntilThresholdC was.

type extKey struct {
	node               vgraph.NodeID
	off                int32
	readStart, readEnd int32
	rev                bool
}

func refProcess(env *Env, read *dna.Read, ss []seeds.Seed, clusters []cluster.Cluster, p Params, readIdx int) []Extension {
	p = p.normalize()
	if len(clusters) == 0 {
		return nil
	}
	best := clusters[0].Score
	var fwd, rev dna.Sequence
	fwd = read.Seq
	// Deduplicate via a linear scan over comparable keys: the candidate set
	// is capped at MaxClusters×MaxSeedsPerCluster (64 at the defaults), so a
	// scan beats hashing and keeps this function map- and Sprintf-free.
	keys := make([]extKey, 0, p.MaxClusters*p.MaxSeedsPerCluster)
	out := make([]Extension, 0, p.MaxClusters*p.MaxSeedsPerCluster)

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
		for _, si := range refPickSeeds(ss, cl.SeedIdx, p.MaxSeedsPerCluster) {
			seed := ss[si]
			oriented := fwd
			if seed.Rev {
				if rev == nil {
					rev = fwd.RevComp()
					if env.Probe != nil {
						env.Probe.Instr(int64(len(fwd)) * 2)
					}
				}
				oriented = rev
			}
			ext, ok := refExtendSeed(env, oriented, seed, p, readIdx)
			if !ok {
				continue
			}
			key := extKey{
				node:      ext.StartPos.Node,
				off:       ext.StartPos.Off,
				readStart: ext.ReadStart,
				readEnd:   ext.ReadEnd,
				rev:       ext.Rev,
			}
			dup := false
			for _, k := range keys {
				if k == key {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			keys = append(keys, key)
			out = append(out, ext)
		}
	}
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

// refPickSeeds selects up to max seed indices from the cluster, preferring
// higher scores then lower read offsets (deterministic).
func refPickSeeds(ss []seeds.Seed, idxs []int, max int) []int {
	sorted := make([]int, len(idxs))
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

// refWalk carries one direction's outcome.
type refWalk struct {
	readPos int32           // exclusive end (right) / inclusive start (left)
	mism    []int32         // mismatch read offsets, walk order
	path    []vgraph.NodeID // nodes entered during the walk, walk order
	pos     vgraph.Position // final boundary position (left only)
	reached bool            // read end/start reached
}

// refExtendSeed extends a single seed bidirectionally. Returns false if the
// anchor itself is invalid (position outside the node).
func refExtendSeed(env *Env, r dna.Sequence, seed seeds.Seed, p Params, readIdx int) (Extension, bool) {
	g := env.Graph
	node := seed.Pos.Node
	if !g.Has(node) || int(seed.Pos.Off) >= g.SeqLen(node) {
		return Extension{}, false
	}
	if int(seed.ReadOff) >= len(r) || seed.ReadOff < 0 {
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
	right := refExtendRight(env, r, seed.ReadOff, node, seed.Pos.Off, state, 0, p, readIdx)

	// Left: from the base before the anchor backward, haplotype-constrained
	// through the reverse index. The left walk restricts the same seed
	// state (its haplotypes are a superset of the right walk's survivors,
	// which is what Giraffe's extender tracks per direction).
	left := refExtendLeft(env, r, seed.ReadOff-1, node, seed.Pos.Off-1, state, p.MaxMismatches-len(right.mism), p, readIdx)

	ext := Extension{
		StartPos:  left.pos,
		ReadStart: left.readPos,
		ReadEnd:   right.readPos,
		Rev:       seed.Rev,
	}
	// Assemble mismatches: left's are collected walking backward. Sized up
	// front; stays nil when the alignment is mismatch-free.
	if n := len(left.mism) + len(right.mism); n > 0 {
		mism := make([]int32, 0, n)
		for i := len(left.mism) - 1; i >= 0; i-- {
			mism = append(mism, left.mism[i])
		}
		mism = append(mism, right.mism...)
		ext.Mismatches = mism
	}
	// Path: left path is collected walking backward (excluding seed node);
	// right path starts with the seed node.
	path := make([]vgraph.NodeID, 0, len(left.path)+len(right.path))
	for i := len(left.path) - 1; i >= 0; i-- {
		path = append(path, left.path[i])
	}
	path = append(path, right.path...)
	ext.Path = path

	matched := ext.Len() - int32(len(ext.Mismatches))
	ext.Score = matched*p.MatchScore - int32(len(ext.Mismatches))*p.MismatchPenalty
	if left.reached {
		ext.Score += p.FullLengthBonus
	}
	if right.reached {
		ext.Score += p.FullLengthBonus
	}
	return ext, true
}

// refExtendRight walks the graph forward from (node, off) matching r[i:],
// following GBWT haplotypes, branching at node boundaries and keeping the
// best-scoring completion. The returned path includes the starting node.
func refExtendRight(env *Env, r dna.Sequence, i int32, node vgraph.NodeID, off int32, state gbwt.BiState, mismUsed int, p Params, readIdx int) refWalk {
	g := env.Graph
	label := g.Seq(node)
	// At most MaxMismatches-mismUsed mismatches can be consumed here: the
	// budget check below stops the walk before the slice would grow.
	mism := make([]int32, 0, p.MaxMismatches-mismUsed)
	if env.Probe != nil {
		n := int32(len(label)) - off
		if rem := int32(len(r)) - i; rem < n {
			n = rem
		}
		if n > 0 {
			env.Probe.Access(counters.NodeSeqAddr(uint32(node), off), int(n))
			env.Probe.Access(counters.ReadAddr(readIdx, i), int(n))
			env.Probe.Instr(int64(n) * 6)
		}
	}
	for int(off) < len(label) && int(i) < len(r) {
		if label[off] != r[i] {
			if mismUsed+len(mism)+1 > p.MaxMismatches {
				// Stop before consuming the over-budget mismatch.
				return refWalk{readPos: i, mism: mism, path: []vgraph.NodeID{node}}
			}
			mism = append(mism, i)
		}
		off++
		i++
	}
	if int(i) >= len(r) {
		return refWalk{readPos: i, mism: mism, path: []vgraph.NodeID{node}, reached: true}
	}
	// Node exhausted: branch along haplotype-consistent successors.
	rec := env.Bi.Fwd.Record(state.Fwd.Node)
	if env.Probe != nil {
		env.Probe.Access(counters.RecordAddr(uint32(state.Fwd.Node)), counters.RecordStride)
		env.Probe.Instr(20)
	}
	var best refWalk
	haveBest := false
	if rec != nil {
		for _, e := range rec.Edges {
			if e.To == gbwt.Endmarker {
				continue
			}
			next := gbwt.ExtendRightWith(env.Bi, state, e.To)
			if next.Empty() {
				continue
			}
			sub := refExtendRight(env, r, i, e.To, 0, next, mismUsed+len(mism), p, readIdx)
			if !haveBest || refBetterRight(sub, best, p) {
				best = sub
				haveBest = true
			}
		}
	}
	if !haveBest {
		// Dead end: the extension stops at the node boundary.
		return refWalk{readPos: i, mism: mism, path: []vgraph.NodeID{node}}
	}
	merged := refWalk{
		readPos: best.readPos,
		mism:    append(mism, best.mism...),
		path:    append([]vgraph.NodeID{node}, best.path...),
		reached: best.reached,
	}
	return merged
}

// refBetterRight compares right-walk completions by score.
func refBetterRight(a, b refWalk, p Params) bool {
	sa := refScore1(a.readPos, int32(len(a.mism)), p)
	sb := refScore1(b.readPos, int32(len(b.mism)), p)
	if sa != sb {
		return sa > sb
	}
	// Deterministic tie-break: longer reach, then lexicographically smaller
	// first path node.
	if a.readPos != b.readPos {
		return a.readPos > b.readPos
	}
	if len(a.path) > 0 && len(b.path) > 0 && a.path[0] != b.path[0] {
		return a.path[0] < b.path[0]
	}
	return false
}

func refScore1(reach, mism int32, p Params) int32 {
	return (reach-mism)*p.MatchScore - mism*p.MismatchPenalty
}

// refExtendLeft walks the graph backward from (node, off) matching r[..i]
// leftward. Predecessor steps are fully haplotype-constrained: the
// bidirectional state is extended left through the reverse index, so only
// walks some indexed haplotype actually takes survive. The returned pos is
// the graph position of the leftmost matched base; readPos is the inclusive
// read start; path lists nodes *before* the seed node, in walk
// (right-to-left) order.
func refExtendLeft(env *Env, r dna.Sequence, i int32, node vgraph.NodeID, off int32, state gbwt.BiState, mismBudget int, p Params, readIdx int) refWalk {
	g := env.Graph
	mb := mismBudget
	if mb < 0 {
		mb = 0
	}
	mism := make([]int32, 0, mb)
	path := make([]vgraph.NodeID, 0, 4)
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
				env.Probe.Access(counters.ReadAddr(readIdx, i-n+1), int(n))
				env.Probe.Instr(int64(n) * 6)
			}
		}
		for curOff >= 0 && i >= 0 {
			if label[curOff] != r[i] {
				if len(mism)+1 > mismBudget {
					return refWalk{
						readPos: i + 1,
						mism:    mism,
						path:    path,
						pos:     vgraph.Position{Node: curNode, Off: curOff + 1},
					}
				}
				mism = append(mism, i)
			}
			curOff--
			i--
		}
		if i < 0 {
			return refWalk{
				readPos: 0,
				mism:    mism,
				path:    path,
				pos:     vgraph.Position{Node: curNode, Off: curOff + 1},
				reached: true,
			}
		}
		// Node start reached: step to the best haplotype-consistent
		// predecessor. Greedy: choose the predecessor whose tail matches the
		// read furthest (deterministic by node id on ties).
		pred, next := bestPredecessor(env, r, i, state)
		if pred == vgraph.Invalid {
			return refWalk{
				readPos: i + 1,
				mism:    mism,
				path:    path,
				pos:     vgraph.Position{Node: curNode, Off: 0},
			}
		}
		path = append(path, pred)
		state = next
		curNode = pred
		curOff = int32(g.SeqLen(pred)) - 1
	}
}

// denseFixture builds a random bubble chain much denser than buildFixture's:
// short nodes and a variant every 6–25 bases, SNP sites with up to three
// alternative alleles, so that a right walk branches every few bases and
// tied branches (both alleles mismatching a substituted read base, then
// rejoining) are common.
func denseFixture(t testing.TB, seed int64, refLen, nHaps int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(dna.Sequence, refLen)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 20; pos < refLen-20; pos += 6 + rng.Intn(20) {
		switch rng.Intn(4) {
		case 0, 1:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1 + dna.Base(rng.Intn(3))) & 3}})
		case 2:
			ins := make(dna.Sequence, 1+rng.Intn(3))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 3:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(3)})
		}
	}
	pg, err := vgraph.BuildPangenome(ref, vs, 3+rng.Intn(6))
	if err != nil {
		t.Fatal(err)
	}
	return finishFixture(t, pg, rng, nHaps)
}

// checkAgainstReference maps the read on both strands with the kernel and
// with the reference, through separate readers of the same capacity, and
// requires every field of every extension, and their order, to agree.
func (f *fixture) checkAgainstReference(t *testing.T, env *Env, read *dna.Read, p Params, what string) int {
	t.Helper()
	n := 0
	for _, seq := range []dna.Sequence{read.Seq, read.Seq.RevComp()} {
		r := &dna.Read{Name: read.Name, Seq: seq, Fragment: -1}
		ss, err := seeds.Extract(f.minIx, r)
		if err != nil {
			t.Fatal(err)
		}
		cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
		refEnv := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
		want := refProcess(refEnv, r, ss, cls, p, 0)
		got := ProcessUntilThresholdC(env, r, ss, cls, p, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: kernel and reference disagree\n got  %+v\n want %+v", what, got, want)
		}
		n += len(got)
	}
	return n
}

// TestMatchesReferenceKernel is the oracle test: over the sparse fixtures the
// other tests use and over dense random bubble chains, with reads carrying
// 0…MaxMismatches+2 substitutions, the scratch-backed walk returns exactly
// what the per-level tournament returned. One Env (so one scratch) serves
// every read of a fixture, which is how the mapper uses it.
func TestMatchesReferenceKernel(t *testing.T) {
	fixtures := []*fixture{
		buildFixture(t, 4, 5000, 8),
		buildFixture(t, 11, 8000, 8),
		denseFixture(t, 21, 3000, 10),
		denseFixture(t, 22, 3000, 16),
		denseFixture(t, 23, 2000, 24),
	}
	for _, p := range []Params{{}, {MaxMismatches: 2, MaxSeedsPerCluster: 8}} {
		maxSubs := p.normalize().MaxMismatches + 2
		for fi, f := range fixtures {
			rng := rand.New(rand.NewSource(int64(100 + fi)))
			env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
			total := 0
			for trial := 0; trial < 60; trial++ {
				hap := rng.Intn(len(f.seqs))
				length := 40 + rng.Intn(110)
				start := rng.Intn(len(f.seqs[hap]) - length)
				seq := f.seqs[hap][start : start+length].Clone()
				for e := trial % (maxSubs + 1); e > 0; e-- {
					at := rng.Intn(len(seq))
					seq[at] = (seq[at] + 1 + dna.Base(rng.Intn(3))) & 3
				}
				read := &dna.Read{Name: "o", Seq: seq, Fragment: -1}
				total += f.checkAgainstReference(t, env, read, p, fmt.Sprintf("fixture %d trial %d", fi, trial))
			}
			if total == 0 {
				t.Errorf("fixture %d: no extensions compared", fi)
			}
		}
	}
}

// TestScoreTieGoesToLongerReach pins the second key of the leaf order on a
// hand-built fork, because random reads rarely produce it: from node 1 the
// walk can take node 2 (6 matching bases, then a dead end: reach 14, no
// mismatch, score 14) or node 3 (11 bases with one mismatch: reach 19, score
// 19-5 = 14). The scores tie, node 2's leaf comes first in depth-first
// order, and the longer reach must still win.
func TestScoreTieGoesToLongerReach(t *testing.T) {
	var g vgraph.Graph
	for _, label := range []string{"ACGTACGT", "TTGCAT", "TTGCATGACCA"} {
		if _, err := g.AddNode(dna.MustParse(label)); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []vgraph.NodeID{2, 3} {
		if err := g.AddEdge(1, to); err != nil {
			t.Fatal(err)
		}
	}
	paths := [][]vgraph.NodeID{{1, 2}, {1, 3}}
	fwd, err := gbwt.New(paths)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := gbwt.FromForward(fwd, paths)
	if err != nil {
		t.Fatal(err)
	}
	read := &dna.Read{Name: "tie", Seq: dna.MustParse("ACGTACGT" + "TTGCATGAGCA" + "GGG"), Fragment: -1}
	ss := []seeds.Seed{{Pos: vgraph.Position{Node: 1}, Score: 1}}
	cls := []cluster.Cluster{{SeedIdx: []int{0}, Score: 1}}
	got := ProcessUntilThresholdC(&Env{Graph: &g, Bi: bi.NewBiReader(16)}, read, ss, cls, Params{}, 0)
	want := refProcess(&Env{Graph: &g, Bi: bi.NewBiReader(16)}, read, ss, cls, Params{}, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel and reference disagree\n got  %+v\n want %+v", got, want)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Path, []vgraph.NodeID{1, 3}) || got[0].ReadEnd != 19 || got[0].Score != 14+5 {
		t.Fatalf("want the reach-19 leaf through node 3 (score 14 + the left full-length bonus), got %+v", got)
	}
}

// TestResultsDoNotAliasScratch: what one call returns is unchanged by the
// next call on the same Env.
func TestResultsDoNotAliasScratch(t *testing.T) {
	f := denseFixture(t, 31, 3000, 12)
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	mapOne := func(seq dna.Sequence) []Extension {
		read := &dna.Read{Name: "a", Seq: seq, Fragment: -1}
		ss, err := seeds.Extract(f.minIx, read)
		if err != nil {
			t.Fatal(err)
		}
		cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
		return ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
	}
	first := f.seqs[0][200:340].Clone()
	first[70] = (first[70] + 1) & 3
	got := mapOne(first)
	if len(got) == 0 || len(got[0].Mismatches) == 0 {
		t.Fatalf("want a first result with mismatches, got %+v", got)
	}
	saved := make([]Extension, len(got))
	for i, e := range got {
		saved[i] = e
		saved[i].Path = append([]vgraph.NodeID(nil), e.Path...)
		saved[i].Mismatches = append([]int32(nil), e.Mismatches...)
	}
	for _, at := range []int{900, 1500, 2100} {
		mapOne(f.seqs[3][at : at+140].RevComp())
	}
	if !reflect.DeepEqual(got, saved) {
		t.Fatalf("a later call on the same scratch changed an earlier result\n now %+v\n was %+v", got, saved)
	}
	if cap(got) != len(got) {
		t.Errorf("result has cap %d for len %d, want an exact-size copy", cap(got), len(got))
	}
}

// TestKernelAllocations locks the allocation budget: on a warm scratch and a
// warm reader a read allocates nothing of its own — its result slice, Paths
// and Mismatches are windows of chunks that a few hundred reads share — so
// the mean over many reads, counted in fractions (testing.AllocsPerRun rounds
// down to whole objects), stays under a constant whatever a read returns.
func TestKernelAllocations(t *testing.T) {
	f := buildFixture(t, 11, 8000, 8)
	seq := f.seqs[2][1000:1120].Clone()
	seq[30] = (seq[30] + 1) & 3
	read := &dna.Read{Name: "a", Seq: seq, Fragment: -1}
	ss, err := seeds.Extract(f.minIx, read)
	if err != nil {
		t.Fatal(err)
	}
	cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	var exts []Extension
	for i := 0; i < 2*chunkReads; i++ { // the chunks reach their full size
		exts = ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
	}
	if len(exts) == 0 || len(exts[0].Mismatches) == 0 {
		t.Fatalf("want extensions with mismatches, got %+v", exts)
	}
	const reads, budget = 4 * chunkReads, 0.05
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		ProcessUntilThresholdC(env, read, ss, cls, Params{}, 0)
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / reads; got > budget {
		t.Errorf("%.3f allocations per read returning %d extensions, budget %.2f", got, len(exts), budget)
	}
}

// TestCarvedResultsAreDisjoint: every window carve hands out is its own —
// results of consecutive reads sit side by side in one chunk, so each is
// held against a private copy while a thousand later reads are written
// next to it, and an append to one must not reach its neighbour.
func TestCarvedResultsAreDisjoint(t *testing.T) {
	f := denseFixture(t, 31, 3000, 12)
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	type kept struct{ got, saved []Extension }
	var all []kept
	for i := 0; i < 1000; i++ {
		hap, at := i%len(f.seqs), 100+(i*37)%2000
		seq := f.seqs[hap][at : at+140].Clone()
		seq[70] = (seq[70] + 1) & 3
		read := &dna.Read{Name: "a", Seq: seq, Fragment: -1}
		ss, err := seeds.Extract(f.minIx, read)
		if err != nil {
			t.Fatal(err)
		}
		cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, i)
		got := ProcessUntilThresholdC(env, read, ss, cls, Params{}, i)
		saved := make([]Extension, len(got))
		for j, e := range got {
			saved[j] = e
			saved[j].Path = append([]vgraph.NodeID(nil), e.Path...)
			saved[j].Mismatches = append([]int32(nil), e.Mismatches...)
		}
		all = append(all, kept{got, saved})
		for j := range got {
			// A caller that appends to what it was given gets a copy.
			_ = append(got[j].Path, vgraph.Invalid)
			_ = append(got[j].Mismatches, -1)
		}
		_ = append(got, Extension{Score: -1})
	}
	mapped := 0
	for i, k := range all {
		if !reflect.DeepEqual(k.got, k.saved) {
			t.Fatalf("read %d's result changed while later reads were mapped\n now %+v\n was %+v", i, k.got, k.saved)
		}
		if len(k.got) > 0 {
			mapped++
		}
	}
	if mapped < len(all)/2 {
		t.Fatalf("only %d of %d reads mapped", mapped, len(all))
	}
}

func BenchmarkProcessUntilThresholdC(b *testing.B) {
	f := buildFixture(b, 11, 8000, 8)
	rng := rand.New(rand.NewSource(12))
	type work struct {
		read *dna.Read
		ss   []seeds.Seed
		cls  []cluster.Cluster
	}
	var items []work
	for i := 0; i < 50; i++ {
		hap := rng.Intn(len(f.seqs))
		start := rng.Intn(len(f.seqs[hap]) - 130)
		read := &dna.Read{Name: "b", Seq: f.seqs[hap][start : start+120].Clone(), Fragment: -1}
		ss, err := seeds.Extract(f.minIx, read)
		if err != nil {
			b.Fatal(err)
		}
		cls := cluster.ClusterSeeds(f.dist, ss, cluster.DefaultParams(), nil, 0)
		items = append(items, work{read, ss, cls})
	}
	env := &Env{Graph: f.pg.Graph, Bi: f.bi.NewBiReader(256)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := items[i%len(items)]
		ProcessUntilThresholdC(env, w.read, w.ss, w.cls, Params{}, 0)
	}
}
