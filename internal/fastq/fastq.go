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
}

// NewScanner wraps r for incremental record reading.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &Scanner{sc: sc}
}

// Next returns the next record, or io.EOF after the last one. Parse errors
// are sticky: once Next fails, every later call returns the same error.
func (s *Scanner) Next() (dna.Read, error) {
	if s.err != nil {
		return dna.Read{}, s.err
	}
	rd, err := s.next()
	if err != nil {
		s.err = err
	}
	return rd, err
}

func (s *Scanner) next() (dna.Read, error) {
	for s.sc.Scan() {
		header := s.sc.Text()
		s.line++
		if header == "" {
			continue
		}
		if !strings.HasPrefix(header, "@") {
			return dna.Read{}, fmt.Errorf("fastq: line %d: expected @header, got %q", s.line, header)
		}
		if !s.sc.Scan() {
			return dna.Read{}, fmt.Errorf("fastq: record %q truncated before sequence", header)
		}
		s.line++
		// The header is the one line kept (the name is a substring of it);
		// the other three are read in the scanner's buffer and not copied.
		seq, err := dna.ParseBytes(s.sc.Bytes())
		if err != nil {
			return dna.Read{}, fmt.Errorf("fastq: record %q: %w", header, err)
		}
		if !s.sc.Scan() || !bytes.HasPrefix(s.sc.Bytes(), []byte("+")) {
			return dna.Read{}, fmt.Errorf("fastq: record %q missing separator line", header)
		}
		s.line++
		if !s.sc.Scan() {
			return dna.Read{}, fmt.Errorf("fastq: record %q truncated before quality", header)
		}
		s.line++
		if n := len(s.sc.Bytes()); n != len(seq) {
			return dna.Read{}, fmt.Errorf("fastq: record %q quality length %d != sequence %d", header, n, len(seq))
		}
		name := strings.TrimPrefix(header, "@")
		read := dna.Read{Name: name, Seq: seq, Fragment: -1}
		switch {
		case strings.HasSuffix(name, "/1"):
			read.Fragment = s.fragment
			read.End = 0
		case strings.HasSuffix(name, "/2"):
			read.Fragment = s.fragment
			read.End = 1
			s.fragment++
		}
		return read, nil
	}
	if err := s.sc.Err(); err != nil {
		return dna.Read{}, err
	}
	return dna.Read{}, io.EOF
}

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
