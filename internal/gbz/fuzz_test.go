package gbz

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/gbwt"
)

// hostileInputs are small files that each claim, in one length field, far
// more than they hold. A loader that sizes a buffer from the claim dies on
// the first with "fatal error: runtime: out of memory", which no recover
// catches, and allocates 8 GiB for the second before it reads a byte.
func hostileInputs() map[string][]byte {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	const emptyGraph = 0 // stands for each of numNodes, numEdges, numPaths
	header := sealed(nil)[:16]
	binary.LittleEndian.PutUint64(header[8:], 1<<33)
	return map[string][]byte{
		// 29 bytes, valid CRC: the GBWT section's node count sized two tables.
		"gbwt-nodes-2e31": sealed(uv(emptyGraph, emptyGraph, emptyGraph, 0, 1<<31)),
		// A bare header: payloadLen sized the read buffer.
		"payload-2e33":     header,
		"node-bases-2e40":  sealed(uv(1, 1<<40)),
		"path-steps-2e40":  sealed(uv(emptyGraph, emptyGraph, 1, 1<<40)),
		"gbwt-paths-2e30":  sealed(uv(emptyGraph, emptyGraph, emptyGraph, 1<<30, 1, 0)),
		"gbwt-record-2e40": sealed(uv(emptyGraph, emptyGraph, emptyGraph, 0, 1, 1<<40, 1)),
	}
}

// TestReadHostileLengths: every hostile input is refused, and refusing it
// allocates next to nothing — the length it claims was never believed.
func TestReadHostileLengths(t *testing.T) {
	for name, in := range hostileInputs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d bytes allocated refusing a %d-byte file", name, grew, len(in))
		}
	}
}

// fuzzMaxVisits keeps the fuzz target from decoding valid-by-format
// run-length bombs (see the constant of the same name in package gbwt).
const fuzzMaxVisits = 1 << 16

// FuzzReadGBZ throws arbitrary bytes at the loader, twice: as a file, and as
// a payload sealed under a header and CRC that pass, so that mutations reach
// the section parsers and not only the checksum. The result is an error, or
// a File whose every GBWT record decodes. (That the graph of a File passes
// Graph.Validate is not asserted and not true: ROADMAP item 3.)
func FuzzReadGBZ(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		var buf bytes.Buffer
		if err := Write(&buf, buildSized(f, seed, 300)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(inflated(f, buf.Bytes()))
	}
	for _, in := range hostileInputs() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealed(data)} {
			file, err := Read(bytes.NewReader(in))
			if err != nil {
				continue
			}
			for v := gbwt.NodeID(0); v <= file.Index.MaxNode(); v++ {
				if file.Index.NumVisits(v) <= fuzzMaxVisits {
					file.Index.Record(v)
				}
			}
		}
	})
}
