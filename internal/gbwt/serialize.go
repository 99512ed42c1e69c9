package gbwt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Serialization layout (all unsigned varints unless noted):
//
//	numPaths
//	n                      (record index space, including endmarker)
//	endDA[numPaths]
//	per node v in 0..n-1:
//	    recordLen          (0 = node unvisited)
//	    visits             (present only when recordLen > 0)
//	    recordLen bytes    (compressed record, stored as-is)
//
// The GBZ container (package gbz) wraps this stream with its header and CRC.

// Serialize writes the GBWT to w.
func (g *GBWT) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := put(uint64(g.numPaths)); err != nil {
		return err
	}
	if err := put(uint64(len(g.comp))); err != nil {
		return err
	}
	for _, d := range g.endDA {
		if err := put(uint64(d)); err != nil {
			return err
		}
	}
	for v := range g.comp {
		rec := g.comp[v]
		if err := put(uint64(len(rec))); err != nil {
			return err
		}
		if len(rec) == 0 {
			continue
		}
		if err := put(uint64(g.visits[v])); err != nil {
			return err
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxIndexSpace bounds the node and path counts of a serialized GBWT: node
// IDs are 32-bit and document-array entries are stored as int32.
const maxIndexSpace = 1 << 31

// Deserialize reads a GBWT written by Serialize from r, which holds the
// stream in memory: the stream is untrusted, and every count in it is held
// to the bytes that remain — each path, node and record byte costs at least
// one — before anything is sized from it.
func Deserialize(r *bytes.Reader) (*GBWT, error) {
	get := func() (uint64, error) { return binary.ReadUvarint(r) }
	numPaths, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbwt: reading numPaths: %w", err)
	}
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbwt: reading node count: %w", err)
	}
	if most := min(maxIndexSpace, uint64(r.Len())); n == 0 || n > most || numPaths > most {
		return nil, fmt.Errorf("gbwt: header claims %d nodes and %d paths, %d bytes remain", n, numPaths, r.Len())
	}
	g := &GBWT{
		comp:     make([][]byte, n),
		visits:   make([]int32, n),
		numPaths: int(numPaths),
		endDA:    make([]int32, numPaths),
	}
	for i := range g.endDA {
		d, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbwt: reading document array: %w", err)
		}
		if d >= numPaths {
			return nil, fmt.Errorf("gbwt: document array entry %d out of range", d)
		}
		g.endDA[i] = int32(d)
	}
	for v := uint64(0); v < n; v++ {
		recLen, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbwt: reading record %d length: %w", v, err)
		}
		if recLen == 0 {
			continue
		}
		visits, err := get()
		if err != nil {
			return nil, fmt.Errorf("gbwt: reading record %d visits: %w", v, err)
		}
		if recLen > uint64(r.Len()) {
			return nil, fmt.Errorf("gbwt: record %d claims %d bytes, %d remain", v, recLen, r.Len())
		}
		buf := make([]byte, recLen)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("gbwt: reading record %d body: %w", v, err)
		}
		// Validate that the record decodes and claims the declared visit
		// count, without building what it decodes to.
		if err := checkRecord(buf, visits); err != nil {
			return nil, fmt.Errorf("gbwt: record %d: %w", v, err)
		}
		g.comp[v] = buf
		g.visits[v] = int32(visits)
	}
	return g, nil
}
