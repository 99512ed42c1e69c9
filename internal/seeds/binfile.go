package seeds

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// Binary capture format ("sequence-seeds.bin"), the proxy's main input.
//
//	magic "MGSB" (4 bytes), version uint16 LE, reserved uint16
//	count uint64 LE
//	per record (varints unless noted):
//	    nameLen, name bytes
//	    fragment+1 (0 = single-end), end
//	    seqLen, packed 2-bit bases
//	    numSeeds
//	    per seed: node, off, readOff, flags (bit0 = rev), score float32 LE
//
// Version 2 is the streaming variant for capture paths that do not know the
// record count up front (e.g. an emulator capturing while it maps): the
// header count field is written as zero and ignored, records stream as in
// version 1, and the file ends with a footer — the sentinel value 2^64-1
// where the next record's nameLen varint would be, followed by the actual
// record count as uint64 LE so readers can verify the stream is complete.
var (
	binMagic   = [4]byte{'M', 'G', 'S', 'B'}
	binVersion = uint16(1)
	// binVersionStream marks the count-free footer variant.
	binVersionStream = uint16(2)
	// streamEndSentinel terminates a version-2 record stream. It can never
	// begin a real record: name lengths are capped far below it.
	streamEndSentinel = ^uint64(0)
)

// Errors reported by the reader.
var (
	ErrBadMagic   = errors.New("seeds: bad magic")
	ErrBadVersion = errors.New("seeds: unsupported version")
	// A seed field on the wire is a uint64 varint; the record narrows it.
	// A value the narrowed field cannot hold is corruption, not a position.
	errNodeRange   = errors.New("seeds: node beyond uint32 node IDs")
	errOffsetRange = errors.New("seeds: offset beyond int32")
)

// Writer streams ReadSeeds records to an output.
type Writer struct {
	bw      *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	n       uint64
	counted uint64
	stream  bool
	err     error
}

// NewWriter writes the header for `count` records and returns the streaming
// writer.
func NewWriter(w io.Writer, count int) (*Writer, error) {
	return newWriter(w, binVersion, uint64(count))
}

// NewStreamWriter returns a version-2 writer that does not need the record
// count up front: records are appended until Close, which writes the
// end-of-stream footer carrying the actual count. Use it on capture paths
// that produce records incrementally.
func NewStreamWriter(w io.Writer) (*Writer, error) {
	return newWriter(w, binVersionStream, 0)
}

func newWriter(w io.Writer, version uint16, count uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], count)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, n: count, stream: version == binVersionStream}, nil
}

func (w *Writer) put(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.scratch[:], v)
	_, w.err = w.bw.Write(w.scratch[:n])
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(b)
}

// Write appends one record.
func (w *Writer) Write(rs *ReadSeeds) error {
	if w.err != nil {
		return w.err
	}
	if !w.stream && w.counted >= w.n {
		w.err = fmt.Errorf("seeds: writing more than the declared %d records", w.n)
		return w.err
	}
	w.counted++
	w.put(uint64(len(rs.Read.Name)))
	w.write([]byte(rs.Read.Name))
	w.put(uint64(rs.Read.Fragment + 1))
	w.put(uint64(rs.Read.End))
	packed := dna.Pack(rs.Read.Seq)
	data, n := packed.Raw()
	w.put(uint64(n))
	w.write(data)
	w.put(uint64(len(rs.Seeds)))
	for _, s := range rs.Seeds {
		w.put(uint64(s.Pos.Node))
		w.put(uint64(s.Pos.Off))
		w.put(uint64(s.ReadOff))
		flags := uint64(0)
		if s.Rev {
			flags = 1
		}
		w.put(flags)
		var f [4]byte
		binary.LittleEndian.PutUint32(f[:], math.Float32bits(s.Score))
		w.write(f[:])
	}
	return w.err
}

// Close flushes the stream. Count-up-front writers verify the declared
// record count; stream writers append the end-of-stream footer instead.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.stream {
		w.put(streamEndSentinel)
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], w.counted)
		w.write(cnt[:])
		if w.err != nil {
			return w.err
		}
	} else if w.counted != w.n {
		return fmt.Errorf("seeds: wrote %d of %d declared records", w.counted, w.n)
	}
	return w.bw.Flush()
}

// Reader streams ReadSeeds records from an input. It accepts both the
// count-up-front version 1 and the footer-terminated streaming version 2.
//
// It decodes out of a window of buffered input into the slabs of a Batch:
// one decoder, with three front ends. ReadBatch fills a batch the caller
// recycles (what pipeline.Run does), Next hands out one record at a time,
// each the caller's to keep, and ReadFile loads a whole capture. The window grows only as input arrives, and every length and
// count in a record is held to the bytes that hold it before anything is
// sized from it. A record that has started must end: a capture cut inside
// one, or before a version-1 count or a version-2 footer is reached, is an
// error wrapping io.ErrUnexpectedEOF, never io.EOF.
type Reader struct {
	src    io.Reader
	buf    []byte // buf[lo:hi] has been read and not yet decoded
	lo, hi int
	srcErr error // what ended src: io.EOF at its end

	remaining uint64
	stream    bool // version 2: remaining is unknown until the footer
	done      bool
	read      uint64
	err       error // sticky: what the last record failed with

	// ReadFile sets size to the length of the input past its header (0:
	// unknown); at is how much of that the records decoded so far took, and
	// bases and seeds count what they hold. From these a whole-file load
	// caps the growth of each slab at what the rest of the input projects.
	size, at     int64
	bases, seeds int
}

// Window sizes and chunk bounds, in bytes and elements.
const (
	firstWindow = 64 << 10
	headerLen   = 16 // magic, version, reserved, count
	// minSeedBytes and maxSeedBytes are the least and the most one seed
	// takes on the wire: four varints of one or of ten bytes, and the score.
	minSeedBytes = 8
	maxSeedBytes = 4*binary.MaxVarintLen64 + 4
	// A chunk of bases or seeds doubles from the first record's size up to
	// these, and stays there: large enough that a pipeline batch fits in
	// one. A whole-file load sizes its chunks from the file instead (take).
	maxBaseChunk = 1 << 20
	maxSeedChunk = 1 << 16
)

// NewReader validates the header and returns a streaming reader.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{src: src, buf: make([]byte, firstWindow)}
	for r.hi < headerLen && r.more() {
	}
	if r.hi < headerLen && r.srcErr != io.EOF {
		return nil, fmt.Errorf("seeds: reading header: %w", r.srcErr)
	}
	if r.hi < len(binMagic) {
		return nil, fmt.Errorf("seeds: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(r.buf) != binMagic {
		return nil, ErrBadMagic
	}
	if r.hi < headerLen {
		return nil, fmt.Errorf("seeds: reading header: %w", io.ErrUnexpectedEOF)
	}
	hdr := r.buf[len(binMagic):headerLen]
	r.lo = headerLen
	switch v := binary.LittleEndian.Uint16(hdr[0:]); v {
	case binVersion:
		// The declared count feeds Remaining()'s int result; a count no real
		// capture can hold (each record is several bytes) is corruption, and
		// letting it through would overflow Remaining negative.
		count := binary.LittleEndian.Uint64(hdr[4:])
		if count > 1<<56 {
			return nil, fmt.Errorf("seeds: implausible record count %d", count)
		}
		r.remaining = count
	case binVersionStream:
		r.stream = true
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return r, nil
}

// more moves the window to the front of the buffer and reads at least as
// many bytes again as it holds, so a record that needs several refills is
// decoded again a logarithmic number of times, not once per read call. The
// buffer doubles only when the window fills half of it. It reports whether
// any byte arrived; once none can, r.srcErr says why.
func (r *Reader) more() bool {
	if r.srcErr != nil {
		return false
	}
	n := copy(r.buf, r.buf[r.lo:r.hi])
	if n >= len(r.buf)/2 {
		buf := make([]byte, 2*len(r.buf))
		copy(buf, r.buf[:n])
		r.buf = buf
	}
	got, err := io.ReadAtLeast(r.src, r.buf[n:], max(n, 1))
	r.lo, r.hi = 0, n+got
	if err == io.ErrUnexpectedEOF {
		err = io.EOF // the last bytes came short of the minimum
	}
	r.srcErr = err
	return got > 0
}

// Remaining returns how many records are left, or -1 when the stream is a
// version-2 capture whose count is only known once the footer is reached.
func (r *Reader) Remaining() int {
	if r.stream {
		if r.done {
			return 0
		}
		return -1
	}
	return int(r.remaining)
}

// Next reads the next record, or io.EOF after the last one. The record and
// the memory under it are the caller's to keep.
func (r *Reader) Next() (*ReadSeeds, error) {
	var b Batch
	if err := r.ReadBatch(&b, 1); len(b.Recs) == 0 {
		return nil, err
	}
	return &b.Recs[0], nil
}

// ReadBatch resets b and fills it with up to n records, their names, bases
// and seeds in b's slabs. It returns io.EOF at the end of the capture,
// possibly with a final short batch in b, or the error that ended the
// stream, with the records read before it. pipeline.Run finds this method
// on its Source and calls it with a recycled batch in place of n Next calls.
func (r *Reader) ReadBatch(b *Batch, n int) error {
	b.Reset()
	var err error
	for len(b.Recs) < n && err == nil {
		err = r.record(b)
	}
	b.Seal()
	return err
}

// ReadFile loads all records from a file at path. Names share one string;
// bases and seeds lie in chunks that are never copied, each record's Seq and
// Seeds a capacity-clipped window of one. From the file's size it caps the
// growth of every slab at what the rest of the file projects, so that each
// holds about what the records need (DESIGN §1).
func ReadFile(path string) ([]ReadSeeds, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	r, err := NewReader(in)
	if err != nil {
		return nil, err
	}
	if fi, err := in.Stat(); err == nil && fi.Size() > headerLen {
		r.size = fi.Size() - headerLen
	}
	var b Batch
	// The v1 header count is untrusted input: a capacity hint only, capped
	// at 1<<16 records (5 MB) whatever the header claims.
	if n := r.Remaining(); n > 0 {
		b.Recs = make([]ReadSeeds, 0, min(n, 1<<16))
	}
	for {
		err := r.record(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	b.Seal()
	return b.Recs, nil
}

// record decodes the next record and appends it to b, name unsealed; io.EOF
// after the last one. A window that ends inside the record is refilled and
// the record decoded again from its start, with b as it was before.
func (r *Reader) record(b *Batch) error {
	if r.err != nil {
		return r.err
	}
	if r.done || (!r.stream && r.remaining == 0) {
		return io.EOF
	}
	for {
		recs, names, nameEnd, bases, seeds := b.Recs, b.names, b.nameEnd, b.bases, b.seeds
		n, err := r.decode(r.buf[r.lo:r.hi], b)
		if _, cut := err.(truncated); cut {
			b.Recs, b.names, b.nameEnd, b.bases, b.seeds = recs, names, nameEnd, bases, seeds
			if r.more() {
				continue
			}
			if r.srcErr != io.EOF {
				err = fmt.Errorf("seeds: reading: %w", r.srcErr)
			}
		}
		switch {
		case err == nil:
			r.lo += n
			r.at += int64(n)
			r.read++
			if !r.stream {
				r.remaining--
			}
		case err == io.EOF:
			r.lo += n
			r.done = true
		default:
			r.err = err
		}
		return err
	}
}

// truncated names the field a window ended in. Decoding the record again
// over a longer window may complete it; at the end of the input it is the
// error: a truncation, which wraps io.ErrUnexpectedEOF.
type truncated string

func (t truncated) Error() string { return "seeds: " + string(t) + ": " + io.ErrUnexpectedEOF.Error() }
func (t truncated) Unwrap() error { return io.ErrUnexpectedEOF }

var errOverflow = errors.New("varint overflows a 64-bit integer")

// fieldErr is the error of a uvarint call that decoded nothing: a window that
// ends inside the varint (k = 0) or a varint past 64 bits (k < 0).
func fieldErr(k int, field truncated) error {
	if k == 0 {
		return field
	}
	return fmt.Errorf("seeds: %s: %w", string(field), errOverflow)
}

// uvarint is binary.Uvarint with its one- and two-byte cases first: every
// header field of a real capture.
func uvarint(w []byte) (uint64, int) {
	if len(w) >= 2 {
		if v, k := short(w, 0); k != 0 {
			return v, k
		}
	}
	return binary.Uvarint(w)
}

// short decodes a varint of one or two bytes at w[pos:], which must hold two
// bytes, and returns its length; 0 for a longer varint. It inlines.
func short(w []byte, pos int) (uint64, int) {
	c := uint64(w[pos])
	if c < 0x80 {
		return c, 1
	}
	d := uint64(w[pos+1])
	if d < 0x80 {
		return c&0x7f | d<<7, 2
	}
	return 0, 0
}

// decode decodes the record at the start of w into b and returns its length
// in bytes, or, for a version-2 footer, the footer's length and io.EOF. A
// window that ends inside the record gives a truncated error, and b then
// holds part of the record: record puts b back.
func (r *Reader) decode(w []byte, b *Batch) (int, error) {
	nameLen, pos := uvarint(w)
	if pos <= 0 {
		return 0, fieldErr(pos, "name length")
	}
	if r.stream && nameLen == streamEndSentinel {
		// End-of-stream footer: verify the trailing count.
		if len(w)-pos < 8 {
			return 0, truncated("stream footer")
		}
		if n := binary.LittleEndian.Uint64(w[pos:]); n != r.read {
			return 0, fmt.Errorf("seeds: stream footer declares %d records, read %d", n, r.read)
		}
		return pos + 8, io.EOF
	}
	if nameLen > 1<<16 {
		return 0, fmt.Errorf("seeds: implausible name length %d", nameLen)
	}
	if uint64(len(w)-pos) < nameLen {
		return 0, truncated("name")
	}
	name := w[pos : pos+int(nameLen)]
	pos += int(nameLen)
	fragment, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "fragment")
	}
	pos += k
	end, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "end")
	}
	pos += k
	seqLen, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "read length")
	}
	pos += k
	if seqLen > 1<<20 {
		return 0, fmt.Errorf("seeds: implausible read length %d", seqLen)
	}
	packedLen := int(seqLen+3) / 4
	if len(w)-pos < packedLen {
		return 0, truncated("bases")
	}
	packed, err := dna.PackedFromRaw(w[pos:pos+packedLen], int(seqLen))
	if err != nil {
		return 0, err
	}
	pos += packedLen
	nSeeds, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "seed count")
	}
	pos += k
	if nSeeds > 1<<24 {
		return 0, fmt.Errorf("seeds: implausible seed count %d", nSeeds)
	}
	if uint64(len(w)-pos) < nSeeds*minSeedBytes {
		return 0, truncated("seeds")
	}

	b.names = append(grow(r, b.names, len(name)), name...)
	seq := take(r, &b.bases, int(seqLen), maxBaseChunk, r.bases)
	packed.UnpackTo(seq)
	ss := take(r, &b.seeds, int(nSeeds), maxSeedChunk, r.seeds)
	if pos, err = decodeSeeds(w, pos, ss); err != nil {
		return 0, err
	}
	b.Recs = append(grow(r, b.Recs, 1), ReadSeeds{
		Read:  dna.Read{Seq: seq, Fragment: int(fragment) - 1, End: int(end)},
		Seeds: ss,
	})
	b.nameEnd = append(grow(r, b.nameEnd, 1), len(b.names))
	r.bases += len(seq)
	r.seeds += len(ss)
	return pos, nil
}

// rest projects how many more elements a slab that took sofar for the input
// decoded so far takes for the rest of it, from the share of the input left;
// -1 when the input's size is unknown or nothing has been decoded yet.
func (r *Reader) rest(sofar int) int {
	if r.size == 0 || r.at == 0 {
		return -1
	}
	return int(float64(sofar) * float64(max(r.size-r.at, 0)) / float64(r.at))
}

// grow returns s with room for n more elements, doubling its capacity when
// it must grow: append grows a large slice by a quarter, which on a
// whole-file load copies it many times over. Once a whole-file load has
// decoded its first window, and s holds what every record so far took, the
// growth stops at what the rest of the input projects and a sixteenth more,
// so that the last copy lands about where the load ends, but never short of
// a quarter: a projection the rest of the input belies (small records
// first, large ones after, or the other way round) costs a few copies, not
// one per record, and never sizes s past twice what it holds.
func grow[T any](r *Reader, s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	size := max(2*cap(s), len(s)+n)
	if r.at >= firstWindow {
		if rest := r.rest(len(s)); rest >= 0 {
			size = min(size, len(s)+max(n, rest+rest/16, len(s)/4))
		}
	}
	return append(make([]T, 0, size), s...)
}

// take returns a capacity-clipped window of n elements at the end of *chunk,
// or nil for none. When the chunk lacks room it starts a new one instead of
// copying: twice the old capacity (and at least n), up to last, or on a
// whole-file load up to what the rest of the input projects for a slab that
// took sofar elements so far. The windows handed out stay where they are,
// and a batch keeps the newest chunk to refill after Reset.
func take[S ~[]T, T any](r *Reader, chunk *S, n, last, sofar int) S {
	if n == 0 {
		return nil
	}
	c := *chunk
	if cap(c)-len(c) < n {
		size := min(2*cap(c), last)
		if rest := r.rest(sofar); rest >= 0 {
			size = min(2*cap(c), rest)
		}
		c = make(S, 0, max(size, n))
	}
	lo := len(c)
	c = c[:lo+n]
	*chunk = c
	return c[lo : lo+n : lo+n]
}

// decodeSeeds decodes len(ss) seeds from w[pos:] into ss and returns where
// they end. When the window holds the worst case, maxSeedBytes a seed, no
// field can be cut short: a seed whose four varints are one or two bytes
// each (below 2¹⁴, so in range for every field) is decoded inline, and any
// other goes through decodeSeed, as every seed of a record the window may
// cut does. The inline case reads all four fields before it looks at their
// lengths: after a longer varint the later ones are read from the wrong
// bytes, still inside the worst case, and dropped.
func decodeSeeds(w []byte, pos int, ss []Seed) (int, error) {
	roomy := uint64(len(w)-pos) >= uint64(len(ss))*maxSeedBytes
	for i := range ss {
		if roomy {
			node, k := short(w, pos)
			off, k2 := short(w, pos+k)
			readOff, k3 := short(w, pos+k+k2)
			flags, k4 := short(w, pos+k+k2+k3)
			if k != 0 && k2 != 0 && k3 != 0 && k4 != 0 {
				pos += k + k2 + k3 + k4
				ss[i] = Seed{
					Pos:     vgraph.Position{Node: vgraph.NodeID(node), Off: int32(off)},
					ReadOff: int32(readOff),
					Rev:     flags&1 != 0,
					Score:   math.Float32frombits(binary.LittleEndian.Uint32(w[pos:])),
				}
				pos += 4
				continue
			}
		}
		var err error
		if pos, err = decodeSeed(w, pos, i, &ss[i]); err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// decodeSeed decodes seed i from w[pos:] into s and returns where it ends.
// A field that does not fit a uint64, a node beyond uint32 or an offset
// beyond int32 is an error, and so is a window that ends inside the seed: a
// truncation.
func decodeSeed(w []byte, pos, i int, s *Seed) (int, error) {
	node, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "seed node")
	}
	pos += k
	off, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "seed offset")
	}
	pos += k
	readOff, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "seed read offset")
	}
	pos += k
	flags, k := uvarint(w[pos:])
	if k <= 0 {
		return 0, fieldErr(k, "seed flags")
	}
	pos += k
	if len(w)-pos < 4 {
		return 0, truncated("seed score")
	}
	score := binary.LittleEndian.Uint32(w[pos:])
	if node > math.MaxUint32 {
		return 0, fmt.Errorf("seeds: seed %d node %d: %w", i, node, errNodeRange)
	}
	if off > math.MaxInt32 || readOff > math.MaxInt32 {
		return 0, fmt.Errorf("seeds: seed %d offset %d, read offset %d: %w", i, off, readOff, errOffsetRange)
	}
	*s = Seed{
		Pos:     vgraph.Position{Node: vgraph.NodeID(node), Off: int32(off)},
		ReadOff: int32(readOff),
		Rev:     flags&1 != 0,
		Score:   math.Float32frombits(score),
	}
	return pos + 4, nil
}

// WriteFile saves all records to a file at path.
func WriteFile(path string, records []ReadSeeds) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := NewWriter(out, len(records))
	if err != nil {
		out.Close()
		return err
	}
	for i := range records {
		if err := w.Write(&records[i]); err != nil {
			out.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// File is a ReadSeeds stream backed by an open file: the incremental input
// the streaming pipeline consumes record by record, so the workload is never
// materialized in memory. Close it when done.
type File struct {
	*Reader
	f *os.File
}

// Open validates the header of the capture file at path and returns the
// incremental reader over its records.
func Open(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(in)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &File{Reader: r, f: in}, nil
}

// Close releases the underlying file.
func (f *File) Close() error { return f.f.Close() }
