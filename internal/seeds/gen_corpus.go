//go:build ignore

// Regenerates the checked-in fuzz corpus for FuzzReadSeeds. The corpus
// seeds the fuzzer with both capture-format versions plus the interesting
// corruption classes (truncation, clipped footer, varint overflow, bad
// magic, seed values the narrowed fields cannot hold), and
// testdata/node-outside-graph.bin: a well-formed capture whose one seed names
// node 2^30, outside any generated graph, which scripts/cli_smoke.sh feeds
// minigiraffe. Run from the repository root:
//
//	go run internal/seeds/gen_corpus.go
//
// The straddle-* entries, captures with a field cut by the end of the
// reader's first window, are TestFieldsStraddlingTheWindow's; it rewrites
// them with go test ./internal/seeds -run Straddling -update-corpus.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dna"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// wireCapture is fuzz_test.go's: a one-record v1 capture (read "w", ACGT)
// whose one seed carries raw varints the Writer cannot emit.
func wireCapture(node, off, readOff uint64) []byte {
	b := append([]byte("MGSB"), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) // version 1, count 1
	b = append(b, 1, 'w', 0, 0)                                     // name, single-end, end 0
	b = append(b, 4, 0xE4)                                          // ACGT, 2-bit packed
	b = append(b, 1)                                                // one seed
	for _, v := range []uint64{node, off, readOff, 0} {             // …, flags
		b = binary.AppendUvarint(b, v)
	}
	return append(b, 0, 0, 0x80, 0x3F) // score 1.0
}

func main() {
	recs := []seeds.ReadSeeds{
		{
			Read: dna.Read{Name: "r0/1", Seq: dna.MustParse("ACGTACGTACGTA"), Fragment: 0, End: 0},
			Seeds: []seeds.Seed{
				{Pos: vgraph.Position{Node: 5, Off: 3}, ReadOff: 2, Rev: true, Score: 1.5},
				{Pos: vgraph.Position{Node: 9, Off: 0}, ReadOff: 7, Score: -2},
			},
		},
		{
			Read: dna.Read{Name: "r0/2", Seq: dna.MustParse("TTTT"), Fragment: 0, End: 1},
		},
		{
			Read:  dna.Read{Name: "solo", Seq: dna.MustParse("G"), Fragment: -1},
			Seeds: []seeds.Seed{{Pos: vgraph.Position{Node: 1, Off: 1}, ReadOff: 0, Score: 0.25}},
		},
	}

	var v1 bytes.Buffer
	w, err := seeds.NewWriter(&v1, len(recs))
	if err != nil {
		log.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	var v2 bytes.Buffer
	sw, err := seeds.NewStreamWriter(&v2)
	if err != nil {
		log.Fatal(err)
	}
	for i := range recs {
		if err := sw.Write(&recs[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}

	badVarint := append([]byte{}, v1.Bytes()[:16]...)
	for i := 0; i < 11; i++ {
		badVarint = append(badVarint, 0x80)
	}
	var emptyV1 bytes.Buffer
	ew, err := seeds.NewWriter(&emptyV1, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		log.Fatal(err)
	}
	var emptyV2 bytes.Buffer
	esw, err := seeds.NewStreamWriter(&emptyV2)
	if err != nil {
		log.Fatal(err)
	}
	if err := esw.Close(); err != nil {
		log.Fatal(err)
	}
	// A v1 header that declares one more record than the file holds: the
	// reader must fail with an error (not EOF confusion) when the payload
	// runs out, and Remaining() must never go negative.
	overcount := append([]byte(nil), v1.Bytes()...)
	overcount[8]++
	entries := map[string][]byte{
		"valid-v1":             v1.Bytes(),
		"valid-v2-stream":      v2.Bytes(),
		"truncated-v1":         v1.Bytes()[:v1.Len()/2],
		"clipped-footer-v2":    v2.Bytes()[:v2.Len()-4],
		"bad-varint":           badVarint,
		"garbage-header":       []byte("not a capture file"),
		"empty-v1":             emptyV1.Bytes(),
		"empty-v2-stream":      emptyV2.Bytes(),
		"overcount-v1":         overcount,
		"node-beyond-uint32":   wireCapture(1<<33, 0, 0),
		"offset-negative":      wireCapture(1, ^uint64(4), 0), // Off -5 as the Writer sign-extends it
		"readoff-beyond-int32": wireCapture(1, 0, 1<<31),
	}
	dir := filepath.Join("internal", "seeds", "testdata", "fuzz", "FuzzReadSeeds")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range entries {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(dir, name), len(data))
	}
	outside := filepath.Join("internal", "seeds", "testdata", "node-outside-graph.bin")
	if err := os.WriteFile(outside, wireCapture(1<<30, 0, 0), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", outside)
}
