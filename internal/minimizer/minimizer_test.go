package minimizer

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

func randomSeq(n int, seed int64) dna.Sequence {
	rng := rand.New(rand.NewSource(seed))
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{{K: 0, W: 5}, {K: 32, W: 5}, {K: 15, W: 0}, {K: -1, W: 1}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Config %+v accepted", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestMinimizersTooShort(t *testing.T) {
	_, err := Minimizers(randomSeq(10, 1), Config{K: 8, W: 4})
	if !errors.Is(err, ErrSequenceTooShort) {
		t.Errorf("err = %v, want ErrSequenceTooShort", err)
	}
}

// naiveMinimizers recomputes minimizers without the deque, as ground truth.
func naiveMinimizers(seq dna.Sequence, cfg Config) []int32 {
	k, w := cfg.K, cfg.W
	nKmers := len(seq) - k + 1
	hash := func(j int) uint64 {
		var fwd, rc uint64
		for i := 0; i < k; i++ {
			b := seq[j+i]
			fwd = (fwd << 2) | uint64(b)
			rc |= uint64(b.Complement()) << uint(2*i)
		}
		canon := fwd
		if rc < fwd {
			canon = rc
		}
		return splitmix64(canon)
	}
	var offs []int32
	last := -1
	for start := 0; start+w <= nKmers; start++ {
		best := start
		for j := start + 1; j < start+w; j++ {
			if hash(j) < hash(best) {
				best = j
			}
		}
		if best != last {
			offs = append(offs, int32(best))
			last = best
		}
	}
	return offs
}

func TestMinimizersMatchNaive(t *testing.T) {
	cfg := Config{K: 7, W: 5}
	for seed := int64(0); seed < 10; seed++ {
		seq := randomSeq(200, seed)
		got, err := Minimizers(seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMinimizers(seq, cfg)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d minimizers, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Off != want[i] {
				t.Fatalf("seed %d: minimizer %d at %d, want %d", seed, i, got[i].Off, want[i])
			}
		}
	}
}

// refMinimizers is the scan as it was before it moved into a ring: every
// k-mer's hash, value and strand in three arrays, the deque over indices. It
// shares no code with appendMinimizers beyond splitmix64.
func refMinimizers(seq dna.Sequence, cfg Config) []Minimizer {
	k, w := cfg.K, cfg.W
	nKmers := len(seq) - k + 1
	mask := uint64(1)<<(2*k) - 1
	var fwd, rc uint64
	hashes := make([]uint64, nKmers)
	kmers := make([]uint64, nKmers)
	revs := make([]bool, nKmers)
	for i, b := range seq {
		fwd = ((fwd << 2) | uint64(b)) & mask
		rc = (rc >> 2) | (uint64(b.Complement()) << uint(2*(k-1)))
		if i >= k-1 {
			j := i - k + 1
			canon, rev := fwd, false
			if rc < fwd {
				canon, rev = rc, true
			}
			kmers[j], revs[j], hashes[j] = canon, rev, splitmix64(canon)
		}
	}
	var out []Minimizer
	var deque []int
	last := -1
	for j := 0; j < nKmers; j++ {
		for len(deque) > 0 && hashes[deque[len(deque)-1]] > hashes[j] {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, j)
		if deque[0] <= j-w {
			deque = deque[1:]
		}
		if m := deque[0]; j >= w-1 && m != last {
			out = append(out, Minimizer{Off: int32(m), Hash: hashes[m], Kmer: kmers[m], Rev: revs[m]})
			last = m
		}
	}
	return out
}

func TestMinimizersMatchReference(t *testing.T) {
	// Every field, over the window shapes that matter to the ring: w = 1
	// (every k-mer wins), the defaults, Giraffe's 29/11, w at and one past
	// ringSize and at twice it (the heap ring), a low-entropy sequence full
	// of equal hashes (the leftmost-wins tie-break), and a homopolymer run,
	// where every k-mer of a window stays a candidate.
	cfgs := []Config{{K: 1, W: 1}, {K: 5, W: 1}, DefaultConfig(), {K: 29, W: 11}, {K: 31, W: 3},
		{K: 7, W: ringSize}, {K: 7, W: ringSize + 1}, {K: 4, W: 2 * ringSize}, {K: 4, W: 100}}
	for _, cfg := range cfgs {
		for seed := int64(0); seed < 8; seed++ {
			seq := randomSeq(150+int(seed)*40, seed)
			switch seed % 4 {
			case 2:
				clear(seq[20:])
			case 3:
				for i := range seq {
					seq[i] = dna.Base(i / 3 % 2)
				}
			}
			got, err := Minimizers(seq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refMinimizers(seq, cfg)
			if len(got) != len(want) {
				t.Fatalf("%+v seed %d: %d minimizers, want %d", cfg, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v seed %d: minimizer %d = %+v, want %+v", cfg, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAppendLookupAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	seq := randomSeq(2000, 4)
	ix, _, _ := buildLinearIndex(t, seq, 16, cfg)
	read := seq[300:450]
	want, err := ix.AppendLookup(nil, read)
	if err != nil || len(want) == 0 {
		t.Fatalf("%d read minimizers, err %v", len(want), err)
	}
	var buf [64]ReadMinimizer
	kept := ReadMinimizer{Score: -1}
	buf[0] = kept
	var got []ReadMinimizer
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = ix.AppendLookup(buf[:1], read)
	})
	if allocs != 0 {
		t.Errorf("AppendLookup into a buffer with room: %v allocs", allocs)
	}
	if len(got) != 1+len(want) || got[0].Score != kept.Score {
		t.Fatalf("appended %d after the prefix (prefix score %v), want %d", len(got)-1, got[0].Score, len(want))
	}
	for i, rm := range got[1:] {
		if rm.Min != want[i].Min || rm.Score != want[i].Score || len(rm.Occs) != len(want[i].Occs) {
			t.Fatalf("read minimizer %d = %+v, want %+v", i, rm, want[i])
		}
	}
}

// TestMinimizersAreWindowLocal checks the window invariant Build rests on:
// a sequence's minimizers are exactly the union, over its windows of K+W−1
// bases, of each window's single minimizer, so a window's own bases decide
// what it contributes, wherever it is spelled. Low-entropy sequences repeat
// k-mers inside a window, and their equal hashes test the leftmost-wins
// tie-break.
func TestMinimizersAreWindowLocal(t *testing.T) {
	cfgs := []Config{{K: 1, W: 1}, {K: 5, W: 3}, DefaultConfig(), {K: 31, W: 11}, {K: 7, W: ringSize}, {K: 7, W: ringSize + 1}}
	for _, cfg := range cfgs {
		for seed := int64(0); seed < 8; seed++ {
			seq := randomSeq(100+int(seed)*25, seed)
			switch seed % 4 {
			case 1:
				for i := range seq {
					seq[i] = dna.Base(i / 3 % 2)
				}
			case 2:
				for i := range seq {
					seq[i] = dna.Base(i % 2 * 3)
				}
			case 3:
				for i := range seq {
					seq[i] = dna.A
				}
			}
			got, err := Minimizers(seq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []Minimizer
			span := cfg.K + cfg.W - 1
			for s := 0; s+span <= len(seq); s++ {
				win, err := Minimizers(seq[s:s+span], cfg)
				if err != nil || len(win) != 1 {
					t.Fatalf("%+v seed %d: window at %d has %d minimizers, err %v", cfg, seed, s, len(win), err)
				}
				m := win[0]
				m.Off += int32(s)
				if len(want) == 0 || want[len(want)-1] != m {
					want = append(want, m)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%+v seed %d: %d minimizers, the windows' union has %d", cfg, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v seed %d: minimizer %d = %+v, the windows' union has %+v", cfg, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMinimizerWindowProperty(t *testing.T) {
	// Every window of w k-mers must contain at least one emitted minimizer.
	cfg := Config{K: 9, W: 6}
	seq := randomSeq(500, 77)
	mins, err := Minimizers(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	isMin := map[int32]bool{}
	for _, m := range mins {
		isMin[m.Off] = true
	}
	nKmers := len(seq) - cfg.K + 1
	for start := 0; start+cfg.W <= nKmers; start++ {
		covered := false
		for j := start; j < start+cfg.W; j++ {
			if isMin[int32(j)] {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("window at %d has no minimizer", start)
		}
	}
}

func TestMinimizersStrandSymmetric(t *testing.T) {
	// The canonical k-mer set of a sequence equals that of its reverse
	// complement (offsets differ, canonical k-mer values must coincide).
	cfg := Config{K: 11, W: 7}
	seq := randomSeq(300, 5)
	fwd, err := Minimizers(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Minimizers(seq.RevComp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fwdSet := map[uint64]bool{}
	for _, m := range fwd {
		fwdSet[m.Kmer] = true
	}
	revSet := map[uint64]bool{}
	for _, m := range rev {
		revSet[m.Kmer] = true
	}
	if len(fwdSet) != len(revSet) {
		t.Fatalf("canonical sets differ in size: %d vs %d", len(fwdSet), len(revSet))
	}
	for k := range fwdSet {
		if !revSet[k] {
			t.Fatalf("canonical k-mer %s missing from reverse set", KmerString(k, cfg.K))
		}
	}
}

func TestKmerString(t *testing.T) {
	// ACGT = 00 01 10 11 = 0x1B.
	if got := KmerString(0x1B, 4); got != "ACGT" {
		t.Errorf("KmerString = %q, want ACGT", got)
	}
}

func TestSplitmixDeterministic(t *testing.T) {
	f := func(x uint64) bool { return splitmix64(x) == splitmix64(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreMonotoneDecreasing(t *testing.T) {
	prev := Score(1)
	for f := 2; f <= HardHitCap; f *= 2 {
		s := Score(f)
		if s > prev {
			t.Fatalf("Score(%d)=%f > Score(%d)=%f", f, s, f/2, prev)
		}
		if s < 1 {
			t.Fatalf("Score(%d)=%f < 1", f, s)
		}
		prev = s
	}
	if Score(0) != 0 {
		t.Error("Score(0) != 0")
	}
}

// TestScoreTableIsTheExpression: inside the table and outside it, Score is
// bit for bit what the logarithm gives.
func TestScoreTableIsTheExpression(t *testing.T) {
	for f := -2; f <= HardHitCap+2; f++ {
		want := 0.0
		if f > 0 {
			want = math.Max(1, math.Log(float64(HardHitCap)/float64(f)))
		}
		if got := Score(f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Score(%d) = %v, the expression gives %v", f, got, want)
		}
	}
}

// buildLinearIndex indexes a single linear path over a chain graph.
func buildLinearIndex(t *testing.T, seq dna.Sequence, nodeLen int, cfg Config) (*Index, *vgraph.Graph, []vgraph.NodeID) {
	t.Helper()
	g := &vgraph.Graph{}
	var path []vgraph.NodeID
	for i := 0; i < len(seq); i += nodeLen {
		end := i + nodeLen
		if end > len(seq) {
			end = len(seq)
		}
		id, err := g.AddNode(seq[i:end].Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(path) > 0 {
			if err := g.AddEdge(path[len(path)-1], id); err != nil {
				t.Fatal(err)
			}
		}
		path = append(path, id)
	}
	ix, err := Build(g, [][]vgraph.NodeID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix, g, path
}

func TestIndexFindsPlantedMatches(t *testing.T) {
	cfg := Config{K: 13, W: 7}
	seq := randomSeq(1000, 9)
	ix, g, _ := buildLinearIndex(t, seq, 16, cfg)
	if ix.NumKmers() == 0 {
		t.Fatal("empty index")
	}
	// A read copied from the reference must have all its minimizers hit, and
	// each hit must point at a graph position spelling the same k-mer.
	read := seq[200:320]
	rms, err := ix.AppendLookup(nil, read)
	if err != nil {
		t.Fatal(err)
	}
	if len(rms) == 0 {
		t.Fatal("no read minimizers found in index")
	}
	mins, err := Minimizers(read, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rms) != len(mins) {
		t.Errorf("%d of %d read minimizers matched; exact copy should match all", len(rms), len(mins))
	}
	for _, rm := range rms {
		if rm.Score < 1 {
			t.Errorf("score %f < 1", rm.Score)
		}
		for _, occ := range rm.Occs {
			// Spell k bases in the graph starting at occ (forward strand of
			// the canonical k-mer) and compare to the canonical k-mer.
			spelled := spellFrom(g, occ.Pos, cfg.K)
			if spelled == nil {
				continue // ran off the path end
			}
			want := rm.Min.Kmer
			var got uint64
			if occ.Rev {
				for _, b := range spelled.RevComp() {
					got = (got << 2) | uint64(b)
				}
			} else {
				for _, b := range spelled {
					got = (got << 2) | uint64(b)
				}
			}
			if got != want {
				t.Fatalf("occurrence at %v spells %s, want %s",
					occ.Pos, KmerString(got, cfg.K), KmerString(want, cfg.K))
			}
		}
	}
}

// spellFrom walks the (linear) graph from pos collecting k bases.
func spellFrom(g *vgraph.Graph, pos vgraph.Position, k int) dna.Sequence {
	var out dna.Sequence
	node, off := pos.Node, pos.Off
	for len(out) < k {
		label := g.Seq(node)
		for int(off) < len(label) && len(out) < k {
			out = append(out, label[off])
			off++
		}
		if len(out) < k {
			succs := g.Successors(node)
			if len(succs) == 0 {
				return nil
			}
			node, off = succs[0], 0
		}
	}
	return out
}

func TestIndexDeduplicatesAcrossHaplotypes(t *testing.T) {
	cfg := Config{K: 11, W: 5}
	seq := randomSeq(400, 21)
	g := &vgraph.Graph{}
	id, err := g.AddNode(seq)
	if err != nil {
		t.Fatal(err)
	}
	path := []vgraph.NodeID{id}
	// The same path indexed twice must not duplicate occurrences.
	once, err := Build(g, [][]vgraph.NodeID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Build(g, [][]vgraph.NodeID{path, path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if once.NumKmers() != twice.NumKmers() {
		t.Fatalf("kmer counts differ: %d vs %d", once.NumKmers(), twice.NumKmers())
	}
	for kmer := range once.hits {
		if once.Frequency(kmer) != twice.Frequency(kmer) {
			t.Fatalf("frequency differs for %s", KmerString(kmer, cfg.K))
		}
	}
}

func TestBuildRejectsMissingNode(t *testing.T) {
	g := &vgraph.Graph{}
	if _, err := Build(g, [][]vgraph.NodeID{{42}}, DefaultConfig()); err == nil {
		t.Error("missing node accepted")
	}
}

func TestLookupReadTooShort(t *testing.T) {
	cfg := Config{K: 13, W: 7}
	ix, _, _ := buildLinearIndex(t, randomSeq(300, 30), 16, cfg)
	if _, err := ix.AppendLookup(nil, randomSeq(5, 1)); err == nil {
		t.Error("short read accepted")
	}
}

func BenchmarkMinimizers(b *testing.B) {
	seq := randomSeq(150, 8)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Minimizers(seq, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
