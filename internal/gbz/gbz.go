// Package gbz implements a GBZ-like container file format for pangenome
// graphs (Sirén & Paten, "GBZ file format for pangenome graphs",
// Bioinformatics 2022): a single file bundling the variation graph's node
// sequences and edges together with the GBWT haplotype index, compressed,
// with integrity checking. Giraffe (and miniGiraffe) load the pangenome
// reference from this format and decompress GBWT records on demand at
// runtime.
//
// Layout:
//
//	offset 0: magic "GBZg" (4 bytes)
//	          version uint16 LE, flags uint16 LE (bit 0: payload deflated)
//	          payloadLen uint64 LE (stored length)
//	          payload (graph section, then GBWT section; see below),
//	          DEFLATE-compressed when flag bit 0 is set
//	          crc32(IEEE) of the stored payload bytes, uint32 LE
//
// Graph section (varints): numNodes; per node: seqLen, packed 2-bit bases,
// zigzag backbone coordinate; numEdges; per edge: delta-from, to; numPaths;
// per path: length, node ids (delta within path).
//
// The file is untrusted. Read sizes nothing from a number in it before that
// many bytes are known to be there: the stored payload is copied through a
// limit into a buffer that grows with what arrives, and once the payload is
// in memory every length is refused unless the bytes that remain could hold
// it (FuzzReadGBZ).
package gbz

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/vgraph"
)

// Magic identifies GBZ files written by this package.
var Magic = [4]byte{'G', 'B', 'Z', 'g'}

// Version is the current format version.
const Version uint16 = 1

// flagDeflate marks a DEFLATE-compressed payload, the on-disk compression
// the GBZ format is named for (per-record run-length coding handles the
// in-memory compression; file-level deflate squeezes the remainder).
const flagDeflate uint16 = 1 << 0

// File is the decoded content of a GBZ container.
type File struct {
	Graph *vgraph.Graph
	Index *gbwt.GBWT
}

// Errors reported by Read.
var (
	ErrBadMagic   = errors.New("gbz: bad magic")
	ErrBadVersion = errors.New("gbz: unsupported version")
	ErrCorrupt    = errors.New("gbz: payload CRC mismatch")
)

// zigzag encodes a signed value for varint storage.
func zigzag(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int32 { return int32(uint32(u)>>1) ^ -int32(uint32(u)&1) }

// Write serialises f to w with a DEFLATE-compressed payload. (Read also
// accepts a stored payload, flag bit 0 clear; nothing here writes one.)
func Write(w io.Writer, f *File) error {
	if f == nil || f.Graph == nil || f.Index == nil {
		return errors.New("gbz: nil file, graph, or index")
	}
	var payload bytes.Buffer
	if err := writeGraph(&payload, f.Graph); err != nil {
		return err
	}
	if err := f.Index.Serialize(&payload); err != nil {
		return err
	}
	var zbuf bytes.Buffer
	zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := zw.Write(payload.Bytes()); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	stored := zbuf.Bytes()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:], Version)
	binary.LittleEndian.PutUint16(hdr[2:], flagDeflate)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(stored)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(stored)
	if _, err := bw.Write(stored); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a GBZ container from r, verifying magic, version, and CRC.
func Read(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("gbz: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("gbz: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[2:])
	if flags&^flagDeflate != 0 {
		return nil, fmt.Errorf("gbz: unknown flags %#x", flags)
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[4:])
	const maxPayload = 1 << 36
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("gbz: implausible payload length %d", payloadLen)
	}
	var stored bytes.Buffer
	if _, err := io.CopyN(&stored, br, int64(payloadLen)); err != nil {
		return nil, fmt.Errorf("gbz: reading payload: %w", err)
	}
	payload := stored.Bytes()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("gbz: reading checksum: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail[:]) {
		return nil, ErrCorrupt
	}
	if flags&flagDeflate != 0 {
		zr := flate.NewReader(bytes.NewReader(payload))
		inflated, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("gbz: inflating payload: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, err
		}
		payload = inflated
	}

	pr := bytes.NewReader(payload)
	g, err := readGraph(pr)
	if err != nil {
		return nil, err
	}
	idx, err := gbwt.Deserialize(pr)
	if err != nil {
		return nil, err
	}
	return &File{Graph: g, Index: idx}, nil
}

// Save writes f to a file at path.
func Save(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Load reads a GBZ file from disk.
func Load(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}

// writeGraph emits the graph section.
func writeGraph(buf *bytes.Buffer, g *vgraph.Graph) error {
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	n := g.NumNodes()
	put(uint64(n))
	for id := vgraph.NodeID(1); int(id) <= n; id++ {
		seq := g.Seq(id)
		packed := dna.Pack(seq)
		data, ln := packed.Raw()
		put(uint64(ln))
		buf.Write(data)
		put(zigzag(g.Backbone(id)))
	}
	put(uint64(g.NumEdges()))
	prevFrom := uint64(0)
	for id := vgraph.NodeID(1); int(id) <= n; id++ {
		for _, to := range g.Successors(id) {
			put(uint64(id) - prevFrom)
			prevFrom = uint64(id)
			put(uint64(to))
		}
	}
	put(uint64(g.NumPaths()))
	for i := 0; i < g.NumPaths(); i++ {
		p := g.Path(i)
		put(uint64(len(p)))
		for _, v := range p {
			put(uint64(v))
		}
	}
	return nil
}

// readGraph parses the graph section.
func readGraph(r *bytes.Reader) (*vgraph.Graph, error) {
	get := func() (uint64, error) { return binary.ReadUvarint(r) }
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbz: node count: %w", err)
	}
	g := &vgraph.Graph{}
	for i := uint64(0); i < n; i++ {
		ln, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbz: node %d seq length: %w", i+1, err)
		}
		if ln > 4*uint64(r.Len()) {
			return nil, fmt.Errorf("gbz: node %d claims %d bases, %d bytes remain", i+1, ln, r.Len())
		}
		data := make([]byte, (ln+3)/4)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("gbz: node %d bases: %w", i+1, err)
		}
		packed, err := dna.PackedFromRaw(data, int(ln))
		if err != nil {
			return nil, err
		}
		if _, err := g.AddNode(packed.Unpack()); err != nil {
			return nil, err
		}
		bb, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbz: node %d backbone: %w", i+1, err)
		}
		g.SetBackbone(vgraph.NodeID(i+1), unzigzag(bb))
	}
	nEdges, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbz: edge count: %w", err)
	}
	prevFrom := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		df, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbz: edge %d from: %w", i, err)
		}
		from := prevFrom + df
		prevFrom = from
		to, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbz: edge %d to: %w", i, err)
		}
		if err := g.AddEdge(vgraph.NodeID(from), vgraph.NodeID(to)); err != nil {
			return nil, err
		}
	}
	nPaths, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbz: path count: %w", err)
	}
	for i := uint64(0); i < nPaths; i++ {
		ln, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbz: path %d length: %w", i, err)
		}
		if ln > uint64(r.Len()) {
			return nil, fmt.Errorf("gbz: path %d claims %d steps, %d bytes remain", i, ln, r.Len())
		}
		path := make([]vgraph.NodeID, ln)
		for j := range path {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("gbz: path %d step %d: %w", i, j, err)
			}
			path[j] = vgraph.NodeID(v)
		}
		if _, err := g.AddPath(path); err != nil {
			return nil, err
		}
	}
	return g, nil
}
