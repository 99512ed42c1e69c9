package seeds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the window-straddling captures in testdata/fuzz/FuzzReadSeeds")

// wireSeed is one seed as the wire carries it, before the reader narrows it.
type wireSeed struct {
	node, off, readOff, flags uint64
	score                     float32
}

func (s wireSeed) seed() Seed {
	return Seed{
		Pos:     vgraph.Position{Node: vgraph.NodeID(s.node), Off: int32(s.off)},
		ReadOff: int32(s.readOff),
		Rev:     s.flags&1 != 0,
		Score:   s.score,
	}
}

// appendHead appends a record up to its seeds: name, single-end, bases and
// seed count.
func appendHead(b []byte, name string, seq dna.Sequence, nSeeds int) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = append(b, 0, 0) // fragment+1 = 0: single-end; end 0
	data, n := dna.Pack(seq).Raw()
	b = binary.AppendUvarint(b, uint64(n))
	b = append(b, data...)
	return binary.AppendUvarint(b, uint64(nSeeds))
}

// appendSeed appends one seed and returns where, counted from the seed's
// first byte, its flags and its score begin.
func appendSeed(b []byte, s wireSeed) (out []byte, flagsAt, scoreAt int) {
	at := len(b)
	for _, v := range []uint64{s.node, s.off, s.readOff} {
		b = binary.AppendUvarint(b, v)
	}
	flagsAt = len(b) - at
	b = binary.AppendUvarint(b, s.flags)
	scoreAt = len(b) - at
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(s.score)), flagsAt, scoreAt
}

// straddleCapture is a version-1 capture of three records whose second has
// one field cut by the end of the reader's first window, file offset
// firstWindow: "node" is a two-byte varint cut after its first byte,
// "flags" a ten-byte varint cut after its fifth, "score" cut after its
// second byte. A record of bases packed into 'A' bytes fills the window up
// to the field. It returns the capture and its records.
func straddleCapture(tb testing.TB, field string) ([]byte, []ReadSeeds) {
	tb.Helper()
	// The first seed is as wide as a valid one gets, so the window holds
	// minSeedBytes for every seed before it ends inside the second: the
	// reader meets the cut field by field, not at the seed count.
	wide := []wireSeed{
		{node: math.MaxUint32, off: math.MaxInt32, readOff: math.MaxInt32, flags: 1 << 63, score: 1.5},
		{node: 300, off: 7, readOff: 140, flags: 1<<63 | 1, score: -2.25},
		{node: 9, off: 0, readOff: 7, flags: 1, score: 0.5},
	}
	seq := dna.MustParse("ACGTACGTAC")
	target := appendHead(nil, "t", seq, len(wide))
	seedsAt := len(target)
	target, _, _ = appendSeed(target, wide[0])
	cutAt := len(target)
	target, flagsAt, scoreAt := appendSeed(target, wide[1])
	target, _, _ = appendSeed(target, wide[2])
	switch field {
	case "node":
		cutAt++
	case "flags":
		cutAt += flagsAt + 5
	case "score":
		cutAt += scoreAt + 2
	default:
		tb.Fatalf("no field %q", field)
	}
	if cutAt-seedsAt < len(wide)*minSeedBytes {
		tb.Fatalf("fixture: %d bytes of seeds before the cut, want %d", cutAt-seedsAt, len(wide)*minSeedBytes)
	}

	// The filler record takes 13 bytes besides its bases when its read
	// length is a three-byte varint.
	fill := firstWindow - headerLen - cutAt
	fillSeq := make(dna.Sequence, 4*(fill-13))
	for i := range fillSeq {
		fillSeq[i] = dna.Base(0x41 >> (2 * (i % 4)) & 3) // packs to 'A'
	}
	data := append([]byte("MGSB"), 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0) // version 1, count 3
	data = appendHead(data, "filler", fillSeq, 0)
	if len(data)+cutAt != firstWindow {
		tb.Fatalf("fixture: %s cut at file offset %d, want %d", field, len(data)+cutAt, firstWindow)
	}
	data = append(data, target...)
	last := wireSeed{node: 1 << 13, off: 1, readOff: 1 << 7, score: 3}
	data = appendHead(data, "after", seq[:5], 1)
	data, _, _ = appendSeed(data, last)

	want := []ReadSeeds{
		{Read: dna.Read{Name: "filler", Seq: fillSeq, Fragment: -1}},
		{Read: dna.Read{Name: "t", Seq: seq, Fragment: -1}},
		{Read: dna.Read{Name: "after", Seq: seq[:5], Fragment: -1}, Seeds: []Seed{last.seed()}},
	}
	for _, s := range wide {
		want[1].Seeds = append(want[1].Seeds, s.seed())
	}
	return data, want
}

// TestFieldsStraddlingTheWindow: a two-byte varint, a ten-byte varint and a
// seed score cut by the end of the first window read back whole through
// ReadFile, ReadBatch, Next and the reference reader. With bytes after the
// capture, which a version-1 reader never reads, the refilled window holds
// the cut record's worst case and its wide seeds leave the inline path for
// decodeSeed and come back. The three captures seed FuzzReadSeeds as
// testdata/fuzz/FuzzReadSeeds/straddle-*; rewrite them with -update-corpus.
func TestFieldsStraddlingTheWindow(t *testing.T) {
	for _, field := range []string{"node", "flags", "score"} {
		data, want := straddleCapture(t, field)
		for _, pad := range []int{0, 3 * maxSeedBytes} {
			padded := append(slices.Clip(data), make([]byte, pad)...)
			if d := diffRecords(agree(t, padded), want); d != "" {
				t.Fatalf("%s cut by the window, %d bytes after the capture: %s", field, pad, d)
			}
		}
		path := filepath.Join("testdata", "fuzz", "FuzzReadSeeds", "straddle-"+field)
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != entry {
			t.Errorf("%s is not this capture (err %v); rewrite it with go test ./internal/seeds -run Straddling -update-corpus", path, err)
		}
	}
}

// TestRefusalsKeepTheirText: an eleven-byte varint in any seed field, a node
// beyond uint32 and an offset beyond int32 fail through every front end
// with the text and the wrapped error they always had, whether the window
// holds the record's worst case (the inline path) or ends with the record.
func TestRefusalsKeepTheirText(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	long := append(bytes.Repeat([]byte{0x80}, 10), 1) // eleven bytes: past 64 bits
	one := uv(1)
	for _, c := range []struct {
		name string
		data func(pad int) []byte
		text string
		is   error
	}{
		{"node of eleven bytes", func(pad int) []byte { return rawCapture(long, one, one, one, pad) },
			"seeds: seed node: varint overflows a 64-bit integer", errOverflow},
		{"offset of eleven bytes", func(pad int) []byte { return rawCapture(one, long, one, one, pad) },
			"seeds: seed offset: varint overflows a 64-bit integer", errOverflow},
		{"read offset of eleven bytes", func(pad int) []byte { return rawCapture(one, one, long, one, pad) },
			"seeds: seed read offset: varint overflows a 64-bit integer", errOverflow},
		{"flags of eleven bytes", func(pad int) []byte { return rawCapture(one, one, one, long, pad) },
			"seeds: seed flags: varint overflows a 64-bit integer", errOverflow},
		{"node 2^32", func(pad int) []byte { return rawCapture(uv(math.MaxUint32+1), one, one, one, pad) },
			"seeds: seed 0 node 4294967296: seeds: node beyond uint32 node IDs", errNodeRange},
		{"offset 2^31", func(pad int) []byte { return rawCapture(one, uv(math.MaxInt32+1), one, one, pad) },
			"seeds: seed 0 offset 2147483648, read offset 1: seeds: offset beyond int32", errOffsetRange},
		{"read offset 2^31", func(pad int) []byte { return rawCapture(one, one, uv(math.MaxInt32+1), one, pad) },
			"seeds: seed 0 offset 1, read offset 2147483648: seeds: offset beyond int32", errOffsetRange},
	} {
		for _, pad := range []int{0, 64} {
			for _, fe := range frontEnds() {
				if fe.name == "reference" {
					continue
				}
				_, err := fe.read(t, c.data(pad))
				if err == nil || err.Error() != c.text || !errors.Is(err, c.is) {
					t.Errorf("%s, %d pad bytes, %s: err = %v, want %q wrapping %v", c.name, pad, fe.name, err, c.text, c.is)
				}
			}
		}
	}
}

// TestReadFileGrowsWithinTwiceItsRecords: ReadFile's record slice ends no
// larger than twice the records it holds, and grows in a few dozen steps,
// when the first window's density belies the rest of the capture. Dense
// first: 8 192 eight-byte records fill the first window, and the 64 records
// of 40 000 bases after them would project ten times the records the
// capture holds. Sparse first: four records of 2^20 bases fill the first
// megabyte, and the 4 000 eight-byte records after them would project
// almost none.
func TestReadFileGrowsWithinTwiceItsRecords(t *testing.T) {
	tiny := func(n int) []ReadSeeds {
		recs := make([]ReadSeeds, n)
		for i := range recs {
			recs[i].Read = dna.Read{Name: "abc", Fragment: -1}
		}
		return recs
	}
	large := func(n, bases int) []ReadSeeds {
		recs := make([]ReadSeeds, n)
		for i := range recs {
			recs[i].Read = dna.Read{Name: "big", Seq: randomSeq(bases, int64(i)), Fragment: -1}
		}
		return recs
	}
	for _, tc := range []struct {
		name string
		recs []ReadSeeds
	}{
		{"dense first", append(tiny(firstWindow/8), large(64, 40_000)...)},
		{"sparse first", append(large(4, 1<<20), tiny(4_000)...)},
	} {
		path := filepath.Join(t.TempDir(), "capture.bin")
		if err := os.WriteFile(path, serializeV2(t, tc.recs), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := ReadFile(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := diffRecords(got, tc.recs); d != "" {
			t.Fatalf("%s: %s", tc.name, d)
		}
		if cap(got) > 2*len(got) {
			t.Errorf("%s: %d records in a slice of %d", tc.name, len(got), cap(got))
		}
		if n := after.Mallocs - before.Mallocs; n > 300 {
			t.Errorf("%s: %d allocations, budget 300", tc.name, n)
		}
	}
}
