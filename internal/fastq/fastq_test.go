package fastq

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
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

// TestLineCap: the line buffer starts at 64 KiB and grows for a file that
// needs it, up to the same 1 MiB cap as when it started there — a line one
// byte under the cap parses, a line at it ends the scan, which the record
// reports as truncated (as it did then).
func TestLineCap(t *testing.T) {
	record := func(n int) io.Reader {
		return strings.NewReader("@long\n" + strings.Repeat("A", n) + "\n+\n" + strings.Repeat("I", n) + "\n@next\nAC\n+\nII\n")
	}
	sc := NewScanner(record(maxLine - 1))
	rd, err := sc.Next()
	if err != nil || rd.Name != "long" || len(rd.Seq) != maxLine-1 {
		t.Fatalf("line one under the cap: name %q, %d bases, err %v", rd.Name, len(rd.Seq), err)
	}
	if rd, err = sc.Next(); err != nil || rd.Name != "next" {
		t.Fatalf("record after the long one: %+v, %v", rd, err)
	}
	if _, err := NewScanner(record(maxLine)).Next(); err == nil || !strings.Contains(err.Error(), `record "@long" truncated before sequence`) {
		t.Fatalf("line at the cap: err %v, want the record truncated before its sequence", err)
	}
}

// TestAppendNextFillsTheCallersSlabs: the append form writes names and bases
// where it is told to, allocates nothing once they have room, clamps each
// Seq to its own bases, and gives both slabs back untouched at io.EOF.
func TestAppendNextFillsTheCallersSlabs(t *testing.T) {
	const n = 50
	var in bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, "@read%d/%d\n%s\n+\n%s\n", i/2, i%2+1, strings.Repeat("ACGT", 25), strings.Repeat("I", 100))
	}
	want, err := Read(bytes.NewReader(in.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names, bases := make([]byte, 0, 1<<10), make(dna.Sequence, 0, 100*n)
	got, ends := make([]dna.Read, n), make([]int, n)
	sc := NewScanner(bytes.NewReader(in.Bytes()))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range got {
		if names, bases, got[i], err = sc.AppendNext(names, bases); err != nil {
			t.Fatal(err)
		}
		ends[i] = len(names)
	}
	runtime.ReadMemStats(&after)
	// None of its own; the runtime (and the race detector, when it runs
	// this) may add a stray one, a per-record allocation adds fifty.
	if allocs := after.Mallocs - before.Mallocs; allocs > n/10 {
		t.Errorf("%d allocations for %d records into slabs with room", allocs, n)
	}
	if n2, b2, _, err := sc.AppendNext(names, bases); err != io.EOF || len(n2) != len(names) || len(b2) != len(bases) {
		t.Fatalf("after the last record: err %v, names %d -> %d, bases %d -> %d", err, len(names), len(n2), len(bases), len(b2))
	}
	all, lo := string(names), 0
	for i := range got {
		got[i].Name, lo = all[lo:ends[i]], ends[i]
		if cap(got[i].Seq) != len(got[i].Seq) {
			t.Fatalf("record %d: Seq has cap %d for len %d", i, cap(got[i].Seq), len(got[i].Seq))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("AppendNext records differ from Next's")
	}
}
