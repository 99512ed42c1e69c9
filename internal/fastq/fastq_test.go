package fastq

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dna"
)

func TestRoundTrip(t *testing.T) {
	reads := []dna.Read{
		{Name: "r1", Seq: dna.MustParse("ACGT"), Fragment: -1},
		{Name: "frag.0/1", Seq: dna.MustParse("GGCC"), Fragment: 0, End: 0},
		{Name: "frag.0/2", Seq: dna.MustParse("TTAA"), Fragment: 0, End: 1},
	}
	var buf bytes.Buffer
	if err := Write(&buf, reads); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reads) {
		t.Fatalf("%d reads, want %d", len(got), len(reads))
	}
	for i := range reads {
		if got[i].Name != reads[i].Name || !got[i].Seq.Equal(reads[i].Seq) {
			t.Fatalf("read %d mismatch: %+v", i, got[i])
		}
	}
	if got[0].Paired() {
		t.Error("single read parsed as paired")
	}
	if !got[1].Paired() || !got[2].Paired() {
		t.Error("paired reads parsed as single")
	}
	if got[1].Fragment != got[2].Fragment {
		t.Error("pair fragments differ")
	}
	if got[1].End != 0 || got[2].End != 1 {
		t.Error("pair ends wrong")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reads.fq")
	reads := []dna.Read{{Name: "a", Seq: dna.MustParse("ACGTACGT"), Fragment: -1}}
	if err := WriteFile(path, reads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Seq.Equal(reads[0].Seq) {
		t.Fatalf("round trip failed: %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"no header", "ACGT\n"},
		{"truncated after header", "@r1\n"},
		{"bad base", "@r1\nACGN\n+\nIIII\n"},
		{"missing separator", "@r1\nACGT\nACGT\nIIII\n"},
		{"quality length", "@r1\nACGT\n+\nII\n"},
		{"truncated before quality", "@r1\nACGT\n+\n"},
	}
	for _, tc := range cases {
		if _, err := Read(strings.NewReader(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	got, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("%d reads from empty input", len(got))
	}
}

func TestFragmentNumbering(t *testing.T) {
	data := "@a/1\nAC\n+\nII\n@a/2\nGT\n+\nII\n@b/1\nAC\n+\nII\n@b/2\nGT\n+\nII\n"
	got, err := Read(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Fragment != 0 || got[1].Fragment != 0 {
		t.Error("first pair not fragment 0")
	}
	if got[2].Fragment != 1 || got[3].Fragment != 1 {
		t.Error("second pair not fragment 1")
	}
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []FastaRecord{
		{Name: "chr1", Seq: dna.MustParse(strings.Repeat("ACGT", 50))}, // wraps
		{Name: "chr2 description", Seq: dna.MustParse("GG")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d records", len(got))
	}
	for i := range recs {
		if got[i].Name != recs[i].Name || !got[i].Seq.Equal(recs[i].Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestFastaWrapWidth(t *testing.T) {
	recs := []FastaRecord{{Name: "x", Seq: dna.MustParse(strings.Repeat("A", 150))}}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 70 + 70 + 10
		t.Fatalf("%d lines", len(lines))
	}
	if len(lines[1]) != 70 || len(lines[3]) != 10 {
		t.Errorf("wrap widths: %d, %d", len(lines[1]), len(lines[3]))
	}
}

func TestFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("headerless sequence accepted")
	}
	if _, err := ReadFasta(strings.NewReader(">x\nACGN\n")); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestFastaFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ref.fa")
	recs := []FastaRecord{{Name: "r", Seq: dna.MustParse("ACGTACGT")}}
	if err := WriteFastaFile(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Seq.Equal(recs[0].Seq) {
		t.Error("file round trip failed")
	}
}

// TestScannerAllocatesNameAndSequenceOnly: of a record's four lines the
// scanner copies one (the header, whose tail is the name) and parses one
// into the Sequence; the separator and quality lines are read in place.
func TestScannerAllocatesNameAndSequenceOnly(t *testing.T) {
	const n = 200
	var in bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, "@read%d/1\n%s\n+\n%s\n", i, strings.Repeat("ACGT", 25), strings.Repeat("I", 100))
	}
	allocs := testing.AllocsPerRun(5, func() {
		sc := NewScanner(bytes.NewReader(in.Bytes()))
		for {
			if _, err := sc.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if budget := float64(2*n + 8); allocs > budget { // 8: the scanner, its buffer, the reader
		t.Errorf("%.0f allocations for %d records, want at most %.0f", allocs, n, budget)
	}
}
