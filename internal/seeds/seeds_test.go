package seeds

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dna"
	"repro/internal/minimizer"
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

func sampleRecords(seed int64, n int) []ReadSeeds {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ReadSeeds, n)
	for i := range out {
		nSeeds := rng.Intn(6)
		ss := make([]Seed, nSeeds)
		for j := range ss {
			ss[j] = Seed{
				Pos:     vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(1000)), Off: int32(rng.Intn(30))},
				ReadOff: int32(rng.Intn(120)),
				Rev:     rng.Intn(2) == 1,
				Score:   float32(1 + rng.Float64()*5),
			}
		}
		frag := -1
		end := 0
		if rng.Intn(2) == 1 {
			frag = rng.Intn(500)
			end = rng.Intn(2)
		}
		out[i] = ReadSeeds{
			Read: dna.Read{
				Name:     "read-" + string(rune('a'+i%26)),
				Seq:      randomSeq(80+rng.Intn(70), seed+int64(i)),
				Fragment: frag,
				End:      end,
			},
			Seeds: ss,
		}
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords(1, 25)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != len(recs) {
		t.Fatalf("Remaining = %d, want %d", r.Remaining(), len(recs))
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got.Read.Name != recs[i].Read.Name ||
			got.Read.Fragment != recs[i].Read.Fragment ||
			got.Read.End != recs[i].Read.End {
			t.Fatalf("record %d metadata mismatch: %+v vs %+v", i, got.Read, recs[i].Read)
		}
		if !got.Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d sequence mismatch", i)
		}
		if len(got.Seeds) != len(recs[i].Seeds) {
			t.Fatalf("record %d: %d seeds, want %d", i, len(got.Seeds), len(recs[i].Seeds))
		}
		if len(got.Seeds) > 0 && !reflect.DeepEqual(got.Seeds, recs[i].Seeds) {
			t.Fatalf("record %d seeds mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	recs := sampleRecords(2, 10)
	path := filepath.Join(t.TempDir(), "seeds.bin")
	if err := WriteFile(path, recs); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWriterCountEnforced(t *testing.T) {
	recs := sampleRecords(3, 2)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[1]); err == nil {
		t.Error("over-count write accepted")
	}
	// Under-count close.
	var buf2 bytes.Buffer
	w2, err := NewWriter(&buf2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err == nil {
		t.Error("under-count close accepted")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	recs := sampleRecords(7, 25)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != -1 {
		t.Fatalf("Remaining before footer = %d, want -1 (unknown)", r.Remaining())
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got.Read.Name != recs[i].Read.Name ||
			got.Read.Fragment != recs[i].Read.Fragment ||
			got.Read.End != recs[i].Read.End {
			t.Fatalf("record %d metadata mismatch: %+v vs %+v", i, got.Read, recs[i].Read)
		}
		if !got.Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d sequence mismatch", i)
		}
		if len(got.Seeds) > 0 && !reflect.DeepEqual(got.Seeds, recs[i].Seeds) {
			t.Fatalf("record %d seeds mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining after footer = %d, want 0", r.Remaining())
	}
	// Repeated Next after the footer stays io.EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("second Next after footer: err = %v, want io.EOF", err)
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestStreamFooterVerified(t *testing.T) {
	recs := sampleRecords(8, 3)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Corrupt the footer count (last 8 bytes) and expect a mismatch error.
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)-1] ^= 0xFF
	r, err := NewReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		if _, lastErr = r.Next(); lastErr != nil {
			break
		}
	}
	if lastErr == io.EOF || lastErr == nil {
		t.Error("corrupted footer count not detected")
	}

	// Truncate inside the footer: the reader must error, not report EOF.
	r2, err := NewReader(bytes.NewReader(data[:len(data)-4]))
	if err != nil {
		t.Fatal(err)
	}
	for lastErr = nil; lastErr == nil; {
		_, lastErr = r2.Next()
	}
	if lastErr == io.EOF {
		t.Error("truncated footer read as clean EOF")
	}
}

func TestReadFileStreamVariant(t *testing.T) {
	recs := sampleRecords(9, 6)
	path := filepath.Join(t.TempDir(), "stream.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX0123456789ab"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	bad := append([]byte{}, binMagic[:]...)
	bad = append(bad, 0xFF, 0xFF, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	recs := sampleRecords(4, 5)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, len(recs))
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-10]))
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < len(recs); i++ {
		if _, err := r.Next(); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("truncated stream read without error")
	}
}

// TestReaderAndCheckRefuse drives one seed from the wire through both ingest
// layers: the reader refuses what the narrowed field cannot hold, Check what
// the graph or the read lacks. None may panic; the valid seed passes both.
func TestReaderAndCheckRefuse(t *testing.T) {
	g := &vgraph.Graph{}
	if _, err := g.AddNode(dna.MustParse("ACGTACGT")); err != nil { // node 1
		t.Fatal(err)
	}
	through := func(node, off, readOff uint64) (*ReadSeeds, error) {
		r, err := NewReader(bytes.NewReader(wireCapture(node, off, readOff)))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Next()
		if err != nil {
			return nil, err
		}
		return rs, rs.Check(g)
	}
	for _, c := range []struct {
		name               string
		node, off, readOff uint64
		want               error
	}{
		{"valid", 1, 7, 3, nil},
		{"node 0", 0, 0, 0, errSeedNode},
		{"node 1<<30", 1 << 30, 0, 0, errSeedNode},
		{"node 1<<33 on the wire", 1 << 33, 0, 0, errNodeRange},
		{"Off -5 as the Writer sign-extends it", 1, ^uint64(4), 0, errOffsetRange},
		{"Off = SeqLen", 1, 8, 0, errSeedOff},
		{"ReadOff = len(read)", 1, 0, 4, errSeedReadOff},
		{"ReadOff beyond int32", 1, 0, 1 << 31, errOffsetRange},
	} {
		rs, err := through(c.node, c.off, c.readOff)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if c.want == nil && (rs.Read.Name != "w" || rs.Read.Seq.String() != "ACGT" ||
			rs.Seeds[0] != Seed{Pos: vgraph.Position{Node: 1, Off: 7}, ReadOff: 3, Score: 1}) {
			t.Errorf("valid wire record read back as %+v", rs)
		}
	}
	// Negative offsets cannot come off the wire any more; Check still
	// refuses them in a record built in memory.
	rs, _ := through(1, 0, 0)
	rs.Seeds[0].Pos.Off = -5
	if err := rs.Check(g); !errors.Is(err, errSeedOff) {
		t.Errorf("Off -5: err = %v, want %v", err, errSeedOff)
	}
	rs.Seeds[0].Pos.Off, rs.Seeds[0].ReadOff = 0, -1
	if err := rs.Check(g); !errors.Is(err, errSeedReadOff) {
		t.Errorf("ReadOff -1: err = %v, want %v", err, errSeedReadOff)
	}
}

// TestExtractOrientation plants a read and its reverse complement and checks
// seed normalisation maps both onto the same graph positions.
func TestExtractOrientation(t *testing.T) {
	cfg := minimizer.Config{K: 13, W: 7}
	ref := randomSeq(600, 9)
	ix := chainIndex(t, ref, cfg)
	fwdRead := &dna.Read{Name: "f", Seq: ref[100:220].Clone(), Fragment: -1}
	revRead := &dna.Read{Name: "r", Seq: ref[100:220].RevComp(), Fragment: -1}
	fwdSeeds, err := Extract(ix, fwdRead)
	if err != nil {
		t.Fatal(err)
	}
	revSeeds, err := Extract(ix, revRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwdSeeds) == 0 {
		t.Fatal("no forward seeds")
	}
	if len(fwdSeeds) != len(revSeeds) {
		t.Fatalf("%d fwd seeds vs %d rev seeds", len(fwdSeeds), len(revSeeds))
	}
	// All forward seeds are Rev=false; all reverse-read seeds are Rev=true,
	// and after orientation the (Pos, ReadOff) pairs coincide.
	type anchor struct {
		pos     vgraph.Position
		readOff int32
	}
	fwdSet := map[anchor]bool{}
	for _, s := range fwdSeeds {
		if s.Rev {
			t.Errorf("forward read produced Rev seed %+v", s)
		}
		fwdSet[anchor{s.Pos, s.ReadOff}] = true
	}
	for _, s := range revSeeds {
		if !s.Rev {
			t.Errorf("reverse read produced forward seed %+v", s)
		}
		if !fwdSet[anchor{s.Pos, s.ReadOff}] {
			t.Errorf("reverse seed %+v has no forward counterpart", s)
		}
	}
	// The seeds are the one thing Extract allocates, and exactly.
	if cap(fwdSeeds) != len(fwdSeeds) {
		t.Errorf("cap %d for %d seeds", cap(fwdSeeds), len(fwdSeeds))
	}
	if allocs := testing.AllocsPerRun(100, func() { Extract(ix, fwdRead) }); allocs != 1 {
		t.Errorf("Extract: %v allocs, want 1", allocs)
	}
}

func TestOpenIncremental(t *testing.T) {
	recs := sampleRecords(3, 5)
	path := filepath.Join(t.TempDir(), "seeds.bin")
	if err := WriteFile(path, recs); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.Remaining() != len(recs) {
		t.Fatalf("Remaining = %d, want %d", f.Remaining(), len(recs))
	}
	for i := range recs {
		rs, err := f.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rs.Read.Name != recs[i].Read.Name || len(rs.Seeds) != len(recs[i].Seeds) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := f.Next(); err != io.EOF {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
}
