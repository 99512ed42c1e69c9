package gbwt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// claimedVisits is a second, minimal reader of the record layout: it skips
// the edge list and returns the visit count the body claims, so the fuzz
// target can hold decodeRecord to it (the loader holds it to the file's
// declared count) without trusting decodeRecord's own parse.
func claimedVisits(b []byte) (uint64, bool) {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	nEdges, ok := next()
	if !ok || nEdges > maxEdges+1 {
		return 0, false
	}
	for i := uint64(0); i < 2*nEdges; i++ {
		if _, ok := next(); !ok {
			return 0, false
		}
	}
	return next()
}

// fuzzMaxVisits keeps the fuzzer off valid-by-format run-length bombs: a
// five-byte run may claim 2³¹−1 visits, and honouring that (as the loader
// must when the file declares the same count) is a 2 GiB body per input.
const fuzzMaxVisits = 1 << 16

// FuzzDecodeRecord throws arbitrary bytes at the record decoder — every
// record body of an untrusted GBZ goes through it at load. It must never
// panic and never size anything from a count it has not checked. When a
// body decodes, its edges ascend strictly in To, the slab decode must equal
// the heap decode field by field in capacity-clipped windows, the loader's
// checkRecord (which keeps nothing, so it runs on any claim) agrees with the
// decode, and encodeRecord must round-trip it: decode ∘
// encode is the identity on decoded records and encode ∘ decode on canonical
// bytes.
func FuzzDecodeRecord(f *testing.F) {
	valid := encodeRecord(&DecodedRecord{
		Edges: []Edge{{To: 0, Offset: 3}, {To: 7, Offset: 0}, {To: 9, Offset: 12}},
		Ranks: []byte{1, 1, 1, 0, 2, 2, 1},
	})
	f.Add(valid)
	f.Add([]byte{0x01, 0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}) // claims 2⁶² visits: crashed the loader
	f.Add([]byte{0x01, 0x80})                                                             // truncated varint
	f.Add([]byte{0x01, 0x01, 0x00, 0x01, 0x00, 0x00})                                     // zero-length run
	f.Add(append(slices.Clone(valid), 0xFF))                                              // trailing bytes
	f.Add([]byte{0x00, 0x00})                                                             // no edges, no visits
	f.Add([]byte{0x02, 0x05, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01})                         // two edges to node 5

	f.Fuzz(func(t *testing.T, b []byte) {
		n, ok := claimedVisits(b)
		if !ok || n > fuzzMaxVisits {
			// Unparseable header, or a claim too large to honour here: hold
			// a different count, so the body must be refused unsized.
			if rec, err := decodeRecord(b, n+1, nil); err == nil {
				t.Fatalf("accepted a body claiming %d visits against a held count of %d: %+v", n, n+1, rec)
			}
			if n > maxVisits {
				if _, err := decodeRecord(b, n, nil); err == nil {
					t.Fatalf("accepted %d visits, beyond what a SearchState can address", n)
				}
			}
			if ok {
				checkRecord(b, n) // a run-length bomb costs the loader nothing
			}
			return
		}
		plain, err := decodeRecord(b, n, nil)
		if cerr := checkRecord(b, n); (err == nil) != (cerr == nil) {
			t.Fatalf("decode err=%v, loader's check err=%v", err, cerr)
		}
		var slab recordSlab
		windowed, serr := decodeRecord(b, n, &slab)
		if (err == nil) != (serr == nil) {
			t.Fatalf("heap decode err=%v, slab decode err=%v", err, serr)
		}
		if err != nil {
			return
		}
		if uint64(len(plain.Ranks)) != n {
			t.Fatalf("decoded %d visits, body claims %d", len(plain.Ranks), n)
		}
		for i := 1; i < len(plain.Edges); i++ {
			if plain.Edges[i-1].To >= plain.Edges[i].To {
				t.Fatalf("edges not strictly ascending in To: %+v", plain.Edges)
			}
		}
		if !slices.Equal(plain.Edges, windowed.Edges) || !bytes.Equal(plain.Ranks, windowed.Ranks) {
			t.Fatalf("slab decode %+v != heap decode %+v", windowed, plain)
		}
		if cap(windowed.Edges) != len(windowed.Edges) || cap(windowed.Ranks) != len(windowed.Ranks) {
			t.Fatalf("slab windows not capacity-clipped: edges %d/%d, ranks %d/%d",
				len(windowed.Edges), cap(windowed.Edges), len(windowed.Ranks), cap(windowed.Ranks))
		}
		enc := encodeRecord(plain)
		again, err := decodeRecord(enc, n, nil)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !slices.Equal(plain.Edges, again.Edges) || !bytes.Equal(plain.Ranks, again.Ranks) {
			t.Fatalf("decode(encode(rec)) = %+v, want %+v", again, plain)
		}
		if enc2 := encodeRecord(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical: %x then %x", enc, enc2)
		}
	})
}
