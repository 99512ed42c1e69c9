package gbwt

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// maxReasonableNodes guards deserialization against hostile or corrupt
// headers.
const maxReasonableNodes = 1 << 31

// Deserialize reads a GBWT written by Serialize.
func Deserialize(r io.Reader) (*GBWT, error) {
	br := bufio.NewReader(r)
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	numPaths, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbwt: reading numPaths: %w", err)
	}
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("gbwt: reading node count: %w", err)
	}
	if n == 0 || n > maxReasonableNodes || numPaths > maxReasonableNodes {
		return nil, errors.New("gbwt: implausible header")
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
		buf := make([]byte, recLen)
		if _, err := io.ReadFull(br, buf); err != nil {
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
