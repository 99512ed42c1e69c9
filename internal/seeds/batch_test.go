package seeds

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/minimizer"
	"repro/internal/vgraph"
)

// chainIndex indexes one linear path over ref, cut into 20-base nodes.
func chainIndex(t *testing.T, ref dna.Sequence, cfg minimizer.Config) *minimizer.Index {
	t.Helper()
	g := &vgraph.Graph{}
	var path []vgraph.NodeID
	for i := 0; i < len(ref); i += 20 {
		id, err := g.AddNode(ref[i:min(i+20, len(ref))].Clone())
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
	ix, err := minimizer.Build(g, [][]vgraph.NodeID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// fillBatch scans sc into b to its end, as giraffe.ExtractSource does.
func fillBatch(t *testing.T, b *Batch, ix *minimizer.Index, sc *fastq.Scanner) {
	t.Helper()
	b.Reset()
	for {
		read, err := b.Scan(sc)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = b.Add(ix, read)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	b.Seal()
}

// batchWorkload is 40 reads of ref from offset from on, every other one
// reverse-complemented and in pairs, with two single-end reads after the
// 20th: one shorter than a minimizer window and one foreign to ref. It
// returns them as FASTQ text and as the records fastq.Read and Extract make.
func batchWorkload(t *testing.T, ix *minimizer.Index, ref dna.Sequence, from int) ([]byte, []ReadSeeds) {
	t.Helper()
	const short, foreign = 20, 21 // two single-end reads between the pairs
	var text bytes.Buffer
	for i := 0; i < 40; i++ {
		at := from + 60*i
		seq := ref[at : at+120].Clone()
		if i%2 == 1 {
			seq = seq.RevComp()
		}
		if i == short {
			fmt.Fprintf(&text, "@short\n%s\n+\n%s\n", seq[:10], bytes.Repeat([]byte("I"), 10))
			fmt.Fprintf(&text, "@foreign\n%s\n+\n%s\n", randomSeq(120, int64(from)+77), bytes.Repeat([]byte("I"), 120))
		}
		fmt.Fprintf(&text, "@r%d.%d/%d\n%s\n+\n%s\n", from, i/2, i%2+1, seq, bytes.Repeat([]byte("I"), 120))
	}
	reads, err := fastq.Read(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]ReadSeeds, len(reads))
	for i := range reads {
		ss, err := Extract(ix, &reads[i])
		if err != nil {
			t.Fatalf("read %q: %v", reads[i].Name, err)
		}
		want[i] = ReadSeeds{Read: reads[i], Seeds: ss}
	}
	if want[short].Seeds != nil || want[foreign].Seeds != nil || len(want[0].Seeds) == 0 || want[41].Read.Fragment != 19 {
		t.Fatalf("fixture: seeds of short / foreign / planted = %d / %d / %d, last fragment %d",
			len(want[short].Seeds), len(want[foreign].Seeds), len(want[0].Seeds), want[41].Read.Fragment)
	}
	return text.Bytes(), want
}

// TestBatchMatchesExtract: a batch filled from FASTQ holds, record for
// record, what fastq.Read and Extract produce — names, pairing, bases, seeds,
// nil Seeds for a read without any — again after Reset and a refill with
// other reads. What a warm refill allocates is counted exactly, outside the
// race detector, by TestBatchRefillAllocations.
// A read shorter than a minimizer window is one of the seedless: no error
// from Extract, while the minimizer scan itself still refuses it.
func TestBatchMatchesExtract(t *testing.T) {
	cfg := minimizer.Config{K: 13, W: 7}
	ref := randomSeq(3000, 9)
	ix := chainIndex(t, ref, cfg)
	if _, err := ix.AppendLookup(nil, ref[:10]); !errors.Is(err, minimizer.ErrSequenceTooShort) {
		t.Fatalf("AppendLookup on 10 bases: %v, want ErrSequenceTooShort", err)
	}

	var b Batch
	for _, from := range []int{100, 400, 100} {
		text, want := batchWorkload(t, ix, ref, from)
		fillBatch(t, &b, ix, fastq.NewScanner(bytes.NewReader(text)))
		if !reflect.DeepEqual(b.Recs, want) {
			for i := range want {
				if !reflect.DeepEqual(b.Recs[i], want[i]) {
					t.Fatalf("from %d, record %d:\nbatch   %+v\nextract %+v", from, i, b.Recs[i], want[i])
				}
			}
			t.Fatalf("from %d: %d records, want %d", from, len(b.Recs), len(want))
		}
		for i := range b.Recs {
			if r := &b.Recs[i]; cap(r.Seeds) != len(r.Seeds) || cap(r.Read.Seq) != len(r.Read.Seq) {
				t.Fatalf("record %d can grow into its neighbour: seeds %d/%d, bases %d/%d",
					i, len(r.Seeds), cap(r.Seeds), len(r.Read.Seq), cap(r.Read.Seq))
			}
		}
	}
}
