package gbwt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// diamondPaths returns a small fixed path set over a diamond-ish DAG:
//
//	1 -> {2,3} -> 4 -> {5,6} -> 7
var diamondPaths = [][]NodeID{
	{1, 2, 4, 5, 7},
	{1, 3, 4, 5, 7},
	{1, 2, 4, 6, 7},
	{1, 3, 4, 6, 7},
	{1, 2, 4, 5, 7}, // duplicate haplotype
}

func mustGBWT(t testing.TB, paths [][]NodeID) *GBWT {
	t.Helper()
	g, err := New(paths)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("no paths accepted")
	}
	if _, err := New([][]NodeID{{}}); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := New([][]NodeID{{1, 0, 2}}); err == nil {
		t.Error("endmarker in path accepted")
	}
	if _, err := New([][]NodeID{{1, 1}}); err == nil {
		t.Error("consecutive repeat accepted")
	}
	if _, err := New([][]NodeID{{1, 2}, {2, 1}}); err == nil {
		t.Error("cyclic adjacencies accepted")
	}
}

func TestNumVisits(t *testing.T) {
	g := mustGBWT(t, diamondPaths)
	want := map[NodeID]int{1: 5, 2: 3, 3: 2, 4: 5, 5: 3, 6: 2, 7: 5}
	for v, n := range want {
		if got := g.NumVisits(v); got != n {
			t.Errorf("NumVisits(%d) = %d, want %d", v, got, n)
		}
	}
	if g.NumVisits(99) != 0 {
		t.Error("NumVisits of absent node != 0")
	}
	if g.NumPaths() != len(diamondPaths) {
		t.Errorf("NumPaths = %d", g.NumPaths())
	}
}

func TestFindCounts(t *testing.T) {
	g := mustGBWT(t, diamondPaths)
	cases := []struct {
		path []NodeID
		want int
	}{
		{[]NodeID{1}, 5},
		{[]NodeID{1, 2}, 3},
		{[]NodeID{1, 3}, 2},
		{[]NodeID{2, 4, 5}, 2},
		{[]NodeID{1, 2, 4, 5, 7}, 2},
		{[]NodeID{1, 3, 4, 6, 7}, 1},
		{[]NodeID{3, 4, 5}, 1},
		{[]NodeID{2, 3}, 0},
		{[]NodeID{7, 1}, 0},
		{nil, 0},
	}
	for _, tc := range cases {
		if got := g.Find(tc.path).Size(); got != tc.want {
			t.Errorf("Find(%v).Size = %d, want %d", tc.path, got, tc.want)
		}
	}
}

func TestLocatePaths(t *testing.T) {
	g := mustGBWT(t, diamondPaths)
	got := g.LocatePaths(g.Find([]NodeID{1, 2, 4, 5}))
	want := []int{0, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LocatePaths = %v, want %v", got, want)
	}
	got = g.LocatePaths(g.Find([]NodeID{6, 7}))
	want = []int{2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LocatePaths(6,7) = %v, want %v", got, want)
	}
}

func TestExtractPath(t *testing.T) {
	g := mustGBWT(t, diamondPaths)
	for i, want := range diamondPaths {
		got, err := g.ExtractPath(i)
		if err != nil {
			t.Fatalf("ExtractPath(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ExtractPath(%d) = %v, want %v", i, got, want)
		}
	}
	if _, err := g.ExtractPath(-1); err == nil {
		t.Error("negative path id accepted")
	}
	if _, err := g.ExtractPath(len(diamondPaths)); err == nil {
		t.Error("out-of-range path id accepted")
	}
}

func TestExtendMonotonic(t *testing.T) {
	g := mustGBWT(t, diamondPaths)
	s := g.FullState(1)
	sizes := []int{s.Size()}
	for _, v := range []NodeID{2, 4, 5, 7} {
		s = g.Extend(s, v)
		sizes = append(sizes, s.Size())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("state grew: %v", sizes)
		}
	}
	if s.Size() != 2 {
		t.Errorf("final size = %d, want 2", s.Size())
	}
}

// buildRandomHaplotypes samples paths through a random pangenome and checks
// the full battery of GBWT invariants against them.
func buildRandomHaplotypes(t testing.TB, seed int64, nHaps int) (*GBWT, [][]NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(dna.Sequence, 3000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 50; pos < 2900; pos += 60 + rng.Intn(60) {
		switch rng.Intn(3) {
		case 0:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
		case 1:
			ins := make(dna.Sequence, 1+rng.Intn(6))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 2:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(8)})
		}
	}
	p, err := vgraph.BuildPangenome(ref, vs, 16)
	if err != nil {
		t.Fatalf("BuildPangenome: %v", err)
	}
	paths := make([][]NodeID, nHaps)
	for h := range paths {
		alleles := make([]int, p.NumSites())
		for i := range alleles {
			alleles[i] = rng.Intn(p.NumAlleles(i))
		}
		path, err := p.HaplotypePath(alleles)
		if err != nil {
			t.Fatal(err)
		}
		paths[h] = path
	}
	return mustGBWT(t, paths), paths
}

func TestRandomHaplotypesRoundTrip(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 42, 12)
	// Every path is extractable and findable.
	for i, p := range paths {
		got, err := g.ExtractPath(i)
		if err != nil {
			t.Fatalf("ExtractPath(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("ExtractPath(%d) mismatch", i)
		}
		s := g.Find(p)
		if s.Empty() {
			t.Fatalf("path %d not found", i)
		}
		ids := g.LocatePaths(s)
		found := false
		for _, id := range ids {
			if id == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("path %d not among located ids %v", i, ids)
		}
	}
	// Random subpaths have Find counts equal to naive substring counts.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		p := paths[rng.Intn(len(paths))]
		start := rng.Intn(len(p) - 4)
		sub := p[start : start+2+rng.Intn(3)]
		want := 0
		for _, q := range paths {
			for i := 0; i+len(sub) <= len(q); i++ {
				match := true
				for j := range sub {
					if q[i+j] != sub[j] {
						match = false
						break
					}
				}
				if match {
					want++
				}
			}
		}
		if got := g.Find(sub).Size(); got != want {
			t.Fatalf("Find(%v).Size = %d, want %d", sub, got, want)
		}
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 7, 8)
	for v := NodeID(0); v <= g.MaxNode(); v++ {
		if !g.Contains(v) {
			continue
		}
		rec := g.Record(v)
		enc := encodeRecord(rec)
		dec, err := decodeRecord(enc, uint64(len(rec.Ranks)), nil)
		if err != nil {
			t.Fatalf("decode(encode) node %d: %v", v, err)
		}
		if !reflect.DeepEqual(rec, dec) {
			t.Fatalf("codec round trip mismatch at node %d", v)
		}
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	bad := []struct {
		body   []byte
		visits uint64 // the count the index holds for the record
		why    string
	}{
		{[]byte{}, 0, "truncated numEdges"},
		{[]byte{0x01}, 0, "truncated edge"},
		{[]byte{0x00, 0x05, 0x00, 0x05}, 5, "run of a rank the record has no edge for"},
		{[]byte{0x01, 0x00, 0x00, 0x02, 0x00, 0x03}, 2, "run longer than the visits left"},
		{[]byte{0x01, 0x00, 0x00, 0x01, 0x00, 0x00}, 1, "zero-length run"},
		{[]byte{0x01, 0x00, 0x00, 0x01, 0x00, 0x01}, 2, "fewer visits than the index holds"},
		{[]byte{0x01, 0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, 1 << 62, "more visits than a SearchState addresses"},
	}
	for _, c := range bad {
		if _, err := decodeRecord(c.body, c.visits, nil); err == nil {
			t.Errorf("%s: corrupt record accepted", c.why)
		}
	}
	// Trailing garbage.
	rec := &DecodedRecord{Edges: []Edge{{To: 0}}, Ranks: []byte{0}}
	enc := append(encodeRecord(rec), 0xFF)
	if _, err := decodeRecord(enc, 1, nil); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 99, 10)
	var buf bytes.Buffer
	if err := g.Serialize(&buf); err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	g2, err := Deserialize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Deserialize: %v", err)
	}
	if g2.NumPaths() != g.NumPaths() || g2.MaxNode() != g.MaxNode() {
		t.Fatal("header mismatch after round trip")
	}
	for i, p := range paths {
		got, err := g2.ExtractPath(i)
		if err != nil {
			t.Fatalf("ExtractPath(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("path %d mismatch after round trip", i)
		}
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	g, _ := buildRandomHaplotypes(t, 5, 4)
	var buf bytes.Buffer
	if err := g.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Deserialize(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := Deserialize(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestDeserializeHostileVisitCount: a record body claiming 2⁶² visits used to
// reach make([]byte, 0, nVisits) and panic the loader (gbz.Load, giraffed
// start-up). Both the declared count and the body's claim are bounded before
// anything is sized from them.
func TestDeserializeHostileVisitCount(t *testing.T) {
	// file wraps one record body as a one-node index declaring the given
	// visit count for it.
	file := func(declared, body []byte) []byte {
		f := []byte{0x01, 0x01, 0x00} // numPaths 1, n 1, endDA [0]
		f = binary.AppendUvarint(f, uint64(len(body)))
		f = append(f, declared...)
		return append(f, body...)
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	body := append([]byte{0x01, 0x01, 0x00}, huge...)
	for _, declared := range [][]byte{{0x01}, huge} {
		if _, err := Deserialize(bytes.NewReader(file(declared, body))); err == nil {
			t.Errorf("declared count % x: record claiming 2^62 visits accepted", declared)
		}
	}
	// A count that does fit, declared and claimed in one run: fourteen bytes
	// that are a valid record of 2³¹−1 visits. Loading it must not build the
	// 2 GiB rank body it stands for.
	most := binary.AppendUvarint(nil, math.MaxInt32)
	bomb := append(append([]byte{0x01, 0x01, 0x00}, most...), append([]byte{0x00}, most...)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Deserialize(bytes.NewReader(file(most, bomb)))
	runtime.ReadMemStats(&after)
	if err != nil || g.visits[0] != math.MaxInt32 {
		t.Fatalf("one run of 2^31-1 visits: err %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("loading a 14-byte record allocated %d bytes", grew)
	}
}

func TestDecodeRefusesUnorderedEdges(t *testing.T) {
	tail := []byte{0x01, 0x01, 0x01} // one visit, one run of rank 1
	for name, edges := range map[string][]byte{
		"same node twice":      {0x02, 0x05, 0x00, 0x00, 0x00},
		"first beyond uint32":  append(append([]byte{0x02}, binary.AppendUvarint(nil, 1<<32)...), 0x00, 0x01, 0x00),
		"second beyond uint32": append(append([]byte{0x02, 0x05, 0x00}, binary.AppendUvarint(nil, math.MaxUint32-4)...), 0x00),
		"delta wraps uint64":   append(append([]byte{0x02, 0x05, 0x00}, binary.AppendUvarint(nil, math.MaxUint64-1)...), 0x00),
		"offset beyond int32":  append(append([]byte{0x02, 0x05}, binary.AppendUvarint(nil, 1<<31)...), 0x01, 0x00),
	} {
		if rec, err := decodeRecord(append(edges, tail...), 1, nil); err == nil {
			t.Errorf("%s: accepted as %+v", name, rec.Edges)
		}
	}
	// The largest node a record can name, right after node 5.
	ok := append(append([]byte{0x02, 0x05, 0x00}, binary.AppendUvarint(nil, math.MaxUint32-5)...), 0x00)
	rec, err := decodeRecord(append(ok, tail...), 1, nil)
	if err != nil || rec.Edges[1].To != math.MaxUint32 {
		t.Fatalf("edges 5, MaxUint32: %+v, err %v", rec, err)
	}
}

func TestCachedMatchesUncached(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 17, 10)
	for _, capacity := range []int{0, 1, 2, 16, 256, 4096} {
		c := NewCached(g, capacity)
		for i, p := range paths {
			if got, want := c.Find(p).Size(), g.Find(p).Size(); got != want {
				t.Fatalf("cap %d: cached Find(path %d) = %d, want %d", capacity, i, got, want)
			}
		}
		rng := rand.New(rand.NewSource(18))
		for trial := 0; trial < 40; trial++ {
			p := paths[rng.Intn(len(paths))]
			start := rng.Intn(len(p) - 3)
			sub := p[start : start+3]
			if got, want := c.Find(sub).Size(), g.Find(sub).Size(); got != want {
				t.Fatalf("cap %d: cached Find(%v) = %d, want %d", capacity, sub, got, want)
			}
		}
	}
}

func TestCacheStatsAndRehash(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 23, 6)
	c := NewCached(g, 2)
	for _, p := range paths {
		c.Find(p)
	}
	st := c.Stats()
	if st.Accesses == 0 || st.Misses == 0 {
		t.Fatalf("no cache activity recorded: %+v", st)
	}
	if st.Rehashes == 0 {
		t.Error("tiny cache never rehashed despite large working set")
	}
	// Second pass over the same paths must be nearly all hits.
	before := c.Stats()
	for _, p := range paths {
		c.Find(p)
	}
	after := c.Stats()
	if after.Misses != before.Misses {
		t.Errorf("second pass decompressed again: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Error("second pass produced no hits")
	}
}

func TestCacheDisabled(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 31, 3)
	c := NewCached(g, 0)
	c.Find(paths[0])
	c.Find(paths[0])
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("disabled cache recorded %d hits", st.Hits)
	}
	if st.Misses != st.Accesses {
		t.Errorf("disabled cache: misses %d != accesses %d", st.Misses, st.Accesses)
	}
}

func TestCacheReset(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 37, 3)
	c := NewCached(g, 64)
	c.Find(paths[0])
	if c.Len() == 0 {
		t.Fatal("nothing cached")
	}
	c.Reset(0)
	if c.Len() != 0 {
		t.Errorf("Len after Reset = %d", c.Len())
	}
	if got, want := c.Find(paths[0]).Size(), g.Find(paths[0]).Size(); got != want {
		t.Errorf("post-Reset Find = %d, want %d", got, want)
	}
}

func TestSearchStateBasics(t *testing.T) {
	var s SearchState
	if !s.Empty() || s.Size() != 0 {
		t.Error("zero state should be empty")
	}
	s = SearchState{Node: 1, Start: 2, End: 5}
	if s.Empty() || s.Size() != 3 {
		t.Errorf("state %+v: Empty=%v Size=%d", s, s.Empty(), s.Size())
	}
}

func BenchmarkFindCached(b *testing.B) {
	g, paths := buildRandomHaplotypes(b, 3, 16)
	c := NewCached(g, DefaultCacheCapacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		c.Find(p[:10])
	}
}

func BenchmarkFindUncached(b *testing.B) {
	g, paths := buildRandomHaplotypes(b, 3, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		g.Find(p[:10])
	}
}
