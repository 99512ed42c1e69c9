package gbz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/vgraph"
)

// buildTestFile creates a pangenome with haplotypes and its GBWT.
func buildTestFile(t testing.TB, seed int64) *File { return buildSized(t, seed, 1500) }

// buildSized is buildTestFile over a reference of refLen bases.
func buildSized(t testing.TB, seed int64, refLen int) *File {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(dna.Sequence, refLen)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := 40; pos < refLen-100; pos += 80 {
		vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1) & 3}})
	}
	p, err := vgraph.BuildPangenome(ref, vs, 24)
	if err != nil {
		t.Fatal(err)
	}
	var paths [][]vgraph.NodeID
	for h := 0; h < 6; h++ {
		alleles := make([]int, p.NumSites())
		for i := range alleles {
			alleles[i] = rng.Intn(p.NumAlleles(i))
		}
		path, err := p.HaplotypePath(alleles)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddPath(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	idx, err := gbwt.New(paths)
	if err != nil {
		t.Fatal(err)
	}
	return &File{Graph: p.Graph, Index: idx}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := buildTestFile(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	g, h := f.Graph, got.Graph
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() || g.NumPaths() != h.NumPaths() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			g.NumNodes(), g.NumEdges(), g.NumPaths(), h.NumNodes(), h.NumEdges(), h.NumPaths())
	}
	for id := vgraph.NodeID(1); int(id) <= g.NumNodes(); id++ {
		if !g.Seq(id).Equal(h.Seq(id)) {
			t.Fatalf("node %d sequence mismatch", id)
		}
		if g.Backbone(id) != h.Backbone(id) {
			t.Fatalf("node %d backbone mismatch", id)
		}
		if !reflect.DeepEqual(g.Successors(id), h.Successors(id)) {
			t.Fatalf("node %d successors mismatch", id)
		}
	}
	for i := 0; i < g.NumPaths(); i++ {
		if !reflect.DeepEqual(g.Path(i), h.Path(i)) {
			t.Fatalf("path %d mismatch", i)
		}
	}
	// The re-read index is the original one, byte for byte: same paths,
	// document array, visit counts and compressed records.
	var a, b bytes.Buffer
	if err := f.Index.Serialize(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Index.Serialize(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("GBWT serializes to %d bytes after the round trip, %d before, or differs", b.Len(), a.Len())
	}
	if err := got.Graph.Validate(); err != nil {
		t.Fatalf("deserialized graph invalid: %v", err)
	}
}

func TestSaveLoad(t *testing.T) {
	f := buildTestFile(t, 2)
	path := filepath.Join(t.TempDir(), "test.gbz")
	if err := Save(path, f); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Graph.NumNodes() != f.Graph.NumNodes() {
		t.Error("node count mismatch after Save/Load")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.gbz")); err == nil {
		t.Error("Load of missing file succeeded")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPE0123456789abcdef")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	f := buildTestFile(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 0xFF // version LSB
	_, err := Read(bytes.NewReader(data))
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	f := buildTestFile(t, 4)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a payload byte (past the 16-byte header).
	data[64] ^= 0x40
	_, err := Read(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadTruncated(t *testing.T) {
	f := buildTestFile(t, 5)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 10, 20, len(data) - 2} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestWriteNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Error("Write(nil) succeeded")
	}
	if err := Write(&buf, &File{}); err == nil {
		t.Error("Write(empty File) succeeded")
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	f := buildTestFile(t, 6)
	if err := Save(string(os.PathSeparator)+"nonexistent-dir-xyz/file.gbz", f); err == nil {
		t.Error("Save to bad path succeeded")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 2, -2, 1 << 30, -(1 << 30), -42} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// sealed wraps payload in the format's other form — stored as is, flag bit 0
// clear — under the header and CRC Read checks. Read accepts it and nothing
// in the repo writes it.
func sealed(payload []byte) []byte {
	out := append([]byte(nil), Magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// inflated returns the payload of a container Write produced.
func inflated(t testing.TB, deflated []byte) []byte {
	t.Helper()
	const head = 4 + 12 // magic, then version/flags/payloadLen
	payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(deflated[head : len(deflated)-4])))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// storedCopy rewrites a container Write produced with its payload stored.
func storedCopy(t *testing.T, deflated []byte) *bytes.Buffer {
	return bytes.NewBuffer(sealed(inflated(t, deflated)))
}

func TestUncompressedRoundTrip(t *testing.T) {
	f := buildTestFile(t, 7)
	var deflated bytes.Buffer
	if err := Write(&deflated, f); err != nil {
		t.Fatal(err)
	}
	plain := *storedCopy(t, deflated.Bytes())
	// Compression must actually shrink the random-but-structured payload.
	if deflated.Len() >= plain.Len() {
		t.Errorf("deflated %d ≥ plain %d bytes", deflated.Len(), plain.Len())
	}
	for name, buf := range map[string]*bytes.Buffer{"plain": &plain, "deflated": &deflated} {
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Graph.NumNodes() != f.Graph.NumNodes() {
			t.Fatalf("%s: node count mismatch", name)
		}
	}
}

func TestReadRejectsUnknownFlags(t *testing.T) {
	f := buildTestFile(t, 8)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[6] |= 0x80 // set an undefined flag bit
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("unknown flag accepted")
	}
}
