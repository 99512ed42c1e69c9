package seeds

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// fuzzRecords is a small workload with every field exercised: paired names,
// reverse seeds, an empty seed list, and a non-trivial sequence.
func fuzzRecords() []ReadSeeds {
	return []ReadSeeds{
		{
			Read: dna.Read{Name: "r0/1", Seq: dna.MustParse("ACGTACGTACGTA"), Fragment: 0, End: 0},
			Seeds: []Seed{
				{Pos: vgraph.Position{Node: 5, Off: 3}, ReadOff: 2, Rev: true, Score: 1.5},
				{Pos: vgraph.Position{Node: 9, Off: 0}, ReadOff: 7, Score: -2},
			},
		},
		{
			Read: dna.Read{Name: "r0/2", Seq: dna.MustParse("TTTT"), Fragment: 0, End: 1},
		},
		{
			Read:  dna.Read{Name: "solo", Seq: dna.MustParse("G"), Fragment: -1},
			Seeds: []Seed{{Pos: vgraph.Position{Node: 1, Off: 1}, ReadOff: 0, Score: 0.25}},
		},
	}
}

func serializeV1(t testing.TB, recs []ReadSeeds) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(recs))
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
	return buf.Bytes()
}

// wireCapture hand-assembles a one-record v1 capture (read "w", ACGT) whose
// one seed carries the given raw varints — values the Writer cannot emit,
// since it serialises from the already-narrowed fields.
func wireCapture(node, off, readOff uint64) []byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return rawCapture(uv(node), uv(off), uv(readOff), uv(0), 0)
}

// rawCapture is wireCapture with the seed's four fields given as raw
// varint bytes, and pad bytes after the record, which a version-1 reader
// never reads: with 64 of them the window holds the record's worst case.
func rawCapture(node, off, readOff, flags []byte, pad int) []byte {
	b := append([]byte("MGSB"), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) // version 1, count 1
	b = append(b, 1, 'w', 0, 0, 4, 0xE4, 1)                         // name, single-end, ACGT, one seed
	for _, f := range [][]byte{node, off, readOff, flags} {
		b = append(b, f...)
	}
	b = append(b, 0, 0, 0x80, 0x3F) // score 1.0
	return append(b, make([]byte, pad)...)
}

// FuzzReadSeeds throws arbitrary bytes at the capture-file reader. The
// reader must reject corrupt input with an error — truncations, bad
// varints, implausible counts, garbage headers — and must never panic.
// A record that reads has non-negative offsets: the reader refuses a wire
// value its narrowed field cannot hold (the node's narrowing leaves no trace
// in the record, so TestReaderAndCheckRefuse and the wireCapture seeds cover
// it). When a full parse succeeds, serialising the records must be stable:
// write -> read -> write yields identical bytes.
//
// The decoder's front ends must agree on every input: Next in a loop,
// ReadBatch at batch sizes 1, 3 and 65536, ReadFile through a file, and the
// reference reader (reference_test.go) return the same records, or all
// refuse.
//
// The Remaining() contract is checked on every input that opens: a v1
// reader starts at its declared count and decrements by exactly one per
// record; a v2 stream answers -1 until the footer is reached; both answer 0
// once Next has returned io.EOF.
func FuzzReadSeeds(f *testing.F) {
	recs := fuzzRecords()
	v1 := serializeV1(f, recs)
	v2 := serializeV2(f, recs)

	f.Add(v1)
	f.Add(v2)
	f.Add(v1[:len(v1)/2])           // truncated mid-record
	f.Add(v2[:len(v2)-4])           // v2 with a clipped footer
	f.Add([]byte{})                 // empty
	f.Add([]byte("MGSB"))           // magic only
	f.Add([]byte("not a bin file")) // bad magic
	badVarint := append(append([]byte{}, v1[:16]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
	f.Add(badVarint) // name length varint overflows
	f.Add(serializeV1(f, nil))
	f.Add(serializeV2(f, nil)) // both formats with zero records
	overcount := append([]byte(nil), v1...)
	overcount[8]++ // v1 header claims one more record than the file holds
	f.Add(overcount)
	f.Add(wireCapture(1<<33, 0, 0))      // node beyond uint32
	f.Add(wireCapture(1, ^uint64(4), 0)) // Off -5 as the Writer sign-extends it
	f.Add(wireCapture(1, 0, 1<<31))      // read offset beyond int32

	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, data)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		rem := r.Remaining()
		if rem < -1 {
			t.Fatalf("Remaining() = %d just after open; contract is a declared count ≥ 0 (v1) or -1 (v2 stream)", rem)
		}
		stream := rem == -1
		var parsed []ReadSeeds
		for {
			before := r.Remaining()
			rec, err := r.Next()
			if err == io.EOF {
				if got := r.Remaining(); got != 0 {
					t.Fatalf("Remaining() = %d after io.EOF, want 0", got)
				}
				break
			}
			if err != nil {
				return
			}
			switch after := r.Remaining(); {
			case stream && after != -1:
				t.Fatalf("stream Remaining() = %d mid-iteration, want -1 until the footer", after)
			case !stream && after != before-1:
				t.Fatalf("Remaining() went %d -> %d across one Next, want a decrement of exactly 1", before, after)
			}
			for i, s := range rec.Seeds {
				if s.Pos.Off < 0 || s.ReadOff < 0 {
					t.Fatalf("record %q seed %d read with a negative offset: %+v", rec.Read.Name, i, s)
				}
			}
			parsed = append(parsed, *rec)
		}
		first := serializeV1(t, parsed)
		r2, err := NewReader(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reparsing canonical serialisation: %v", err)
		}
		var again []ReadSeeds
		for {
			rec, err := r2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reparsing canonical serialisation: %v", err)
			}
			again = append(again, *rec)
		}
		second := serializeV1(t, again)
		if !bytes.Equal(first, second) {
			t.Fatal("serialisation is not stable across a write/read cycle")
		}
	})
}
