// Package fastq reads and writes short reads in FASTQ format, the standard
// sequencer output the paper's input sets arrive in (Table III). Quality
// strings are synthesised (the mapper does not use them) and paired-end
// identity is carried in the conventional "/1"-"/2" name suffixes.
package fastq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dna"
)

// Write emits reads in FASTQ.
func Write(w io.Writer, reads []dna.Read) error {
	bw := bufio.NewWriter(w)
	for i := range reads {
		r := &reads[i]
		qual := strings.Repeat("I", len(r.Seq))
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.Name, r.Seq.String(), qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile saves reads to a FASTQ file.
func WriteFile(path string, reads []dna.Read) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, reads); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Scanner reads FASTQ records one at a time — the incremental front end of
// the streaming extraction path (giraffe.ExtractSource), where buffering the
// whole read set would defeat the pipeline's bounded-memory guarantee. It
// carries the pairing state across records: names ending in "/1" or "/2"
// are paired, consecutive /1-/2 records form a fragment, numbered in file
// order — exactly the numbering the batch Read produces, so streamed and
// materialized workloads are record-for-record identical.
type Scanner struct {
	sc       *bufio.Scanner
	line     int
	fragment int
	err      error
	name     []byte // Next's copy of the header line, reused
}

// maxLine bounds one FASTQ line; the line buffer starts small and grows to
// it only for a file that needs it.
const maxLine = 1 << 20

// NewScanner wraps r for incremental record reading.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return &Scanner{sc: sc}
}

// Next returns the next record, or io.EOF after the last one. The record is
// the caller's: its name and sequence are the two things Next allocates.
// Parse errors are sticky: once Next fails, every later call returns the
// same error.
func (s *Scanner) Next() (dna.Read, error) {
	var rd dna.Read
	var err error
	s.name, _, rd, err = s.AppendNext(s.name[:0], nil)
	rd.Name = string(s.name)
	return rd, err
}

// AppendNext is Next into memory the caller owns: the record's name goes on
// the end of names and its bases on the end of bases, both returned
// extended. The Read's Seq is that window of bases, clamped to its length,
// and its Name is empty: a caller filling a batch makes one string of all
// the names and slices it. On io.EOF or an error both slices come back as
// they were passed. Errors are sticky, as for Next.
func (s *Scanner) AppendNext(names []byte, bases dna.Sequence) ([]byte, dna.Sequence, dna.Read, error) {
	if s.err == nil {
		n, b, rd, err := s.appendNext(names, bases)
		if err == nil {
			return n, b, rd, nil
		}
		s.err = err
	}
	return names, bases, dna.Read{}, s.err
}

func (s *Scanner) appendNext(names []byte, bases dna.Sequence) ([]byte, dna.Sequence, dna.Read, error) {
	for s.sc.Scan() {
		s.line++
		if len(s.sc.Bytes()) == 0 {
			continue
		}
		if s.sc.Bytes()[0] != '@' {
			return nil, nil, dna.Read{}, fmt.Errorf("fastq: line %d: expected @header, got %q", s.line, s.sc.Bytes())
		}
		// The name is the one line copied; the other three are read in the
		// scanner's buffer, which the next Scan overwrites.
		lo := len(names)
		names = append(names, s.sc.Bytes()[1:]...)
		name := names[lo:]
		if !s.sc.Scan() {
			return nil, nil, dna.Read{}, fmt.Errorf("fastq: record %q truncated before sequence", header(name))
		}
		s.line++
		from := len(bases)
		var err error
		if bases, err = dna.AppendParse(bases, s.sc.Bytes()); err != nil {
			return nil, nil, dna.Read{}, fmt.Errorf("fastq: record %q: %w", header(name), err)
		}
		seq := bases[from:len(bases):len(bases)]
		if !s.sc.Scan() || !bytes.HasPrefix(s.sc.Bytes(), []byte("+")) {
			return nil, nil, dna.Read{}, fmt.Errorf("fastq: record %q missing separator line", header(name))
		}
		s.line++
		if !s.sc.Scan() {
			return nil, nil, dna.Read{}, fmt.Errorf("fastq: record %q truncated before quality", header(name))
		}
		s.line++
		if n := len(s.sc.Bytes()); n != len(seq) {
			return nil, nil, dna.Read{}, fmt.Errorf("fastq: record %q quality length %d != sequence %d", header(name), n, len(seq))
		}
		read := dna.Read{Seq: seq, Fragment: -1}
		switch {
		case bytes.HasSuffix(name, []byte("/1")):
			read.Fragment = s.fragment
			read.End = 0
		case bytes.HasSuffix(name, []byte("/2")):
			read.Fragment = s.fragment
			read.End = 1
			s.fragment++
		}
		return names, bases, read, nil
	}
	if err := s.sc.Err(); err != nil {
		return nil, nil, dna.Read{}, err
	}
	return nil, nil, dna.Read{}, io.EOF
}

// header spells a record's header line again for an error message.
func header(name []byte) string { return "@" + string(name) }

// Read parses FASTQ records. Names ending in "/1" or "/2" are paired:
// consecutive /1-/2 records form a fragment, numbered in file order.
func Read(r io.Reader) ([]dna.Read, error) {
	sc := NewScanner(r)
	var out []dna.Read
	for {
		rd, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
	}
}

// ReadFile loads a FASTQ file.
func ReadFile(path string) ([]dna.Read, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
