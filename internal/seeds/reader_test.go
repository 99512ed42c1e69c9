package seeds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/vgraph"
)

// frontEnd reads a whole capture one way and returns its records, which
// outlive the reader, or the first error.
type frontEnd struct {
	name string
	read func(tb testing.TB, data []byte) ([]ReadSeeds, error)
}

// frontEnds are the three front ends of the decoder — Next in a loop,
// ReadBatch at three batch sizes, ReadFile through a file — and the
// reference reader's Next, which shares none of its code.
func frontEnds() []frontEnd {
	out := []frontEnd{
		{"Next", func(_ testing.TB, data []byte) ([]ReadSeeds, error) {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			var recs []ReadSeeds
			for {
				rs, err := r.Next()
				if err == io.EOF {
					return recs, nil
				}
				if err != nil {
					return nil, err
				}
				recs = append(recs, *rs)
			}
		}},
		{"ReadFile", func(tb testing.TB, data []byte) ([]ReadSeeds, error) {
			path := filepath.Join(tb.TempDir(), "capture.bin")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				tb.Fatal(err)
			}
			return ReadFile(path)
		}},
		{"reference", func(_ testing.TB, data []byte) ([]ReadSeeds, error) {
			r, err := newRefReader(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			var recs []ReadSeeds
			for {
				rs, err := r.Next()
				if err == io.EOF {
					return recs, nil
				}
				if err != nil {
					return nil, err
				}
				recs = append(recs, *rs)
			}
		}},
	}
	for _, n := range []int{1, 3, 65536} {
		out = append(out, frontEnd{fmt.Sprintf("ReadBatch(%d)", n), func(_ testing.TB, data []byte) ([]ReadSeeds, error) {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			var b Batch
			var recs []ReadSeeds
			for {
				err := r.ReadBatch(&b, n)
				if len(b.Recs) > n {
					return nil, fmt.Errorf("ReadBatch(%d) returned %d records", n, len(b.Recs))
				}
				if err != nil && err != io.EOF {
					return nil, err
				}
				// The next fill reuses the slabs under these records.
				for _, rs := range b.Recs {
					rs.Read.Seq, rs.Seeds = exactCopy(rs.Read.Seq), exactCopy(rs.Seeds)
					recs = append(recs, rs)
				}
				if err == io.EOF {
					return recs, nil
				}
			}
		}})
	}
	return out
}

// exactCopy copies s into a slice with no room to spare, nil for none.
func exactCopy[S ~[]T, T any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return append(make(S, 0, len(s)), s...)
}

// diffRecords describes the first difference between two record lists, or
// returns "" when they hold the same records. An empty Seq or Seeds equals a
// nil one: the readers differ there and no consumer tells them apart.
func diffRecords(got, want []ReadSeeds) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Read.Name != w.Read.Name || g.Read.Fragment != w.Read.Fragment || g.Read.End != w.Read.End ||
			!slices.Equal(g.Read.Seq, w.Read.Seq) || !slices.EqualFunc(g.Seeds, w.Seeds, sameSeed) {
			return fmt.Sprintf("record %d: %+v, want %+v", i, *g, *w)
		}
		if cap(g.Read.Seq) != len(g.Read.Seq) || cap(g.Seeds) != len(g.Seeds) {
			return fmt.Sprintf("record %d can grow into its neighbour: bases %d/%d, seeds %d/%d",
				i, len(g.Read.Seq), cap(g.Read.Seq), len(g.Seeds), cap(g.Seeds))
		}
	}
	return ""
}

// sameSeed is == on seeds with the scores compared bit for bit: a file may
// carry a NaN score, which == never matches, and the readers must still agree
// on it.
func sameSeed(a, b Seed) bool {
	return a.Pos == b.Pos && a.ReadOff == b.ReadOff && a.Rev == b.Rev &&
		math.Float32bits(a.Score) == math.Float32bits(b.Score)
}

// agree reads data through every front end and fails unless all return the
// same records or all refuse. It returns the records, nil on a refusal.
func agree(tb testing.TB, data []byte) []ReadSeeds {
	tb.Helper()
	var want []ReadSeeds
	var wantErr error
	for i, fe := range frontEnds() {
		recs, err := fe.read(tb, data)
		if i == 0 {
			want, wantErr = recs, err
			continue
		}
		switch {
		case (err == nil) != (wantErr == nil):
			tb.Fatalf("%s: error %v; Next: error %v", fe.name, err, wantErr)
		case err == nil:
			if d := diffRecords(recs, want); d != "" {
				tb.Fatalf("%s vs Next: %s", fe.name, d)
			}
		}
	}
	if wantErr != nil {
		return nil
	}
	return want
}

func serializeV2(tb testing.TB, recs []ReadSeeds) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrontEndsMatchReference: on both capture versions, every front end
// reads what the reference reader reads, and the records written.
func TestFrontEndsMatchReference(t *testing.T) {
	recs := sampleRecords(35, 300)
	recs[7].Seeds = nil
	recs[8].Read.Seq = nil
	for _, data := range [][]byte{serializeV1(t, recs), serializeV2(t, recs)} {
		if d := diffRecords(agree(t, data), recs); d != "" {
			t.Fatal(d)
		}
	}
}

// TestTruncatedCaptureIsNeverEOF: a capture cut anywhere — inside the
// header, inside a record, at a record boundary before a version-1 count is
// reached or a version-2 footer is read, inside the footer — fails through
// every front end with an error that wraps io.ErrUnexpectedEOF and never
// reads as the end of the stream. The reference reader predates this and
// is left out.
func TestTruncatedCaptureIsNeverEOF(t *testing.T) {
	recs := fuzzRecords()
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"v1", serializeV1(t, recs)},
		{"v2", serializeV2(t, recs)},
		{"v1 without records", serializeV1(t, nil)},
		{"v2 without records", serializeV2(t, nil)},
	} {
		for cut := 0; cut < len(c.data); cut++ {
			for _, fe := range frontEnds() {
				if fe.name == "reference" {
					continue
				}
				_, err := fe.read(t, c.data[:cut])
				if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
					t.Fatalf("%s cut at %d of %d bytes, %s: err = %v, want one wrapping io.ErrUnexpectedEOF and not io.EOF",
						c.name, cut, len(c.data), fe.name, err)
				}
			}
		}
	}
}

// TestReaderOverShortReads: records larger than the first window (which
// must grow) and sources that return a byte or half a buffer at a time
// (so records straddle refills everywhere) read back as written.
func TestReaderOverShortReads(t *testing.T) {
	recs := sampleRecords(36, 40)
	big := &recs[17]
	big.Read.Seq = randomSeq(300_000, 36)
	big.Seeds = make([]Seed, 5000)
	for i := range big.Seeds {
		big.Seeds[i] = Seed{Pos: vgraph.Position{Node: vgraph.NodeID(300 + i), Off: 7}, ReadOff: int32(i), Rev: i%3 == 0, Score: 2.5}
	}
	data := serializeV2(t, recs)
	if len(big.Read.Seq)/4 < firstWindow {
		t.Fatal("fixture: the big record fits the first window")
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one byte":    iotest.OneByteReader,
		"half a read": iotest.HalfReader,
	} {
		r, err := NewReader(wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		var got []ReadSeeds
		var b Batch
		for {
			err := r.ReadBatch(&b, 7)
			for _, rs := range b.Recs {
				rs.Read.Seq, rs.Seeds = exactCopy(rs.Read.Seq), exactCopy(rs.Seeds)
				got = append(got, rs)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if d := diffRecords(got, recs); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
}

// TestClaimsHeldToBytesLeft: a record that declares the longest read or the
// most seeds the format allows, with almost nothing behind the claim, is a
// truncation, and no front end sizes anything from the claim first: 2²⁴
// seeds would be a 320 MiB slab, 2²⁰ bases a 1 MiB one.
func TestClaimsHeldToBytesLeft(t *testing.T) {
	head := append([]byte("MGSB"), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) // version 1, count 1
	head = append(head, 1, 'w', 0, 0)                                  // name, single-end, end 0
	for name, data := range map[string][]byte{
		"read length 2^20": append(binary.AppendUvarint(slices.Clone(head), 1<<20), 0xE4, 0xE4),
		"seed count 2^24":  append(binary.AppendUvarint(append(slices.Clone(head), 4, 0xE4), 1<<24), 1, 2, 3, 0, 0, 0, 0x80, 0x3F),
	} {
		for _, fe := range frontEnds() {
			if fe.name == "reference" {
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := fe.read(t, data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, %s: err = %v, want a truncation", name, fe.name, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 512<<10 {
				t.Errorf("%s, %s: allocated %d B before refusing", name, fe.name, got)
			}
		}
	}
}
