package seeds

// The reference reader: Reader.Next and ReadFile as they stood before the
// reader decoded out of a buffered window into slabs. It reads every field
// through binary.ReadUvarint and io.ReadFull on a bufio.Reader, unpacks bases
// two bits at a time and allocates each record's name, bases and seeds
// apart. It shares no decoding code with Reader, so where the two disagree
// on a record, the new decoder is wrong.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// refReader streams ReadSeeds records from an input. It accepts both the
// count-up-front version 1 and the footer-terminated streaming version 2.
type refReader struct {
	br        *bufio.Reader
	remaining uint64
	stream    bool // version 2: remaining is unknown until the footer
	done      bool
	read      uint64
}

// newRefReader validates the header and returns a streaming reader.
func newRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("seeds: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("seeds: reading header: %w", err)
	}
	switch v := binary.LittleEndian.Uint16(hdr[0:]); v {
	case binVersion:
		// The declared count feeds Remaining()'s int result; a count no real
		// capture can hold (each record is several bytes) is corruption, and
		// letting it through would overflow Remaining negative.
		count := binary.LittleEndian.Uint64(hdr[4:])
		if count > 1<<56 {
			return nil, fmt.Errorf("seeds: implausible record count %d", count)
		}
		return &refReader{br: br, remaining: count}, nil
	case binVersionStream:
		return &refReader{br: br, stream: true}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
}

// Remaining returns how many records are left, or -1 when the stream is a
// version-2 capture whose count is only known once the footer is reached.
func (r *refReader) Remaining() int {
	if r.stream {
		if r.done {
			return 0
		}
		return -1
	}
	return int(r.remaining)
}

// refNoCleanEOF converts a clean io.EOF into io.ErrUnexpectedEOF: inside a
// record, running out of bytes is a truncation, not an end of stream.
func refNoCleanEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next reads the next record, or io.EOF after the last one.
func (r *refReader) Next() (*ReadSeeds, error) {
	if r.done || (!r.stream && r.remaining == 0) {
		return nil, io.EOF
	}
	if !r.stream {
		r.remaining--
	}
	get := func() (uint64, error) { return binary.ReadUvarint(r.br) }
	nameLen, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: name length: %w", err)
	}
	if r.stream && nameLen == streamEndSentinel {
		// End-of-stream footer: verify the trailing count.
		var cnt [8]byte
		if _, err := io.ReadFull(r.br, cnt[:]); err != nil {
			return nil, fmt.Errorf("seeds: stream footer: %w", err)
		}
		if n := binary.LittleEndian.Uint64(cnt[:]); n != r.read {
			return nil, fmt.Errorf("seeds: stream footer declares %d records, read %d", n, r.read)
		}
		r.done = true
		return nil, io.EOF
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("seeds: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return nil, fmt.Errorf("seeds: name: %w", err)
	}
	// From here on the record has started: a clean EOF from the underlying
	// reader is a truncation, and must surface as an error — never as the
	// bare io.EOF that callers read as a complete stream (and that would
	// leave a v2 Reader's Remaining() stuck at -1).
	fragP1, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: fragment: %w", refNoCleanEOF(err))
	}
	end, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: end: %w", refNoCleanEOF(err))
	}
	seqLen, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: read length: %w", refNoCleanEOF(err))
	}
	if seqLen > 1<<20 {
		return nil, fmt.Errorf("seeds: implausible read length %d", seqLen)
	}
	data := make([]byte, (seqLen+3)/4)
	if _, err := io.ReadFull(r.br, data); err != nil {
		return nil, fmt.Errorf("seeds: bases: %w", err)
	}
	// Base by base, two bits at a time: no code shared with dna's table.
	seq := make(dna.Sequence, seqLen)
	for i := range seq {
		seq[i] = dna.Base(data[i/4]>>(2*(i%4))) & 3
	}
	nSeeds, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: seed count: %w", refNoCleanEOF(err))
	}
	if nSeeds > 1<<24 {
		return nil, fmt.Errorf("seeds: implausible seed count %d", nSeeds)
	}
	// Preallocate from the declared count only up to a modest bound: a
	// corrupt or hostile count must not translate into a huge allocation
	// before any seed bytes have been read.
	capHint := nSeeds
	if capHint > 4096 {
		capHint = 4096
	}
	rs := &ReadSeeds{
		Read: dna.Read{
			Name:     string(name),
			Seq:      seq,
			Fragment: int(fragP1) - 1,
			End:      int(end),
		},
		Seeds: make([]Seed, 0, capHint),
	}
	for i := 0; i < int(nSeeds); i++ {
		node, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d node: %w", i, refNoCleanEOF(err))
		}
		off, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d offset: %w", i, refNoCleanEOF(err))
		}
		readOff, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d read offset: %w", i, refNoCleanEOF(err))
		}
		flags, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d flags: %w", i, refNoCleanEOF(err))
		}
		var f [4]byte
		if _, err := io.ReadFull(r.br, f[:]); err != nil {
			return nil, fmt.Errorf("seeds: seed %d score: %w", i, err)
		}
		if node > math.MaxUint32 {
			return nil, fmt.Errorf("seeds: seed %d node %d: %w", i, node, errNodeRange)
		}
		if off > math.MaxInt32 || readOff > math.MaxInt32 {
			return nil, fmt.Errorf("seeds: seed %d offset %d, read offset %d: %w", i, off, readOff, errOffsetRange)
		}
		rs.Seeds = append(rs.Seeds, Seed{
			Pos:     vgraph.Position{Node: vgraph.NodeID(node), Off: int32(off)},
			ReadOff: int32(readOff),
			Rev:     flags&1 != 0,
			Score:   math.Float32frombits(binary.LittleEndian.Uint32(f[:])),
		})
	}
	r.read++
	return rs, nil
}

// refReadFile loads all records from a file at path.
func refReadFile(path string) ([]ReadSeeds, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	r, err := newRefReader(in)
	if err != nil {
		return nil, err
	}
	// The v1 header count is untrusted input — use it as a capacity hint
	// only within a modest bound.
	capHint := r.Remaining()
	if capHint < 0 {
		capHint = 0
	} else if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]ReadSeeds, 0, capHint)
	for {
		rs, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, *rs)
	}
	return out, nil
}
