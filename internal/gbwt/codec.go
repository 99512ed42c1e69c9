package gbwt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Record wire format (all integers unsigned varints):
//
//	numEdges
//	repeated numEdges times: deltaTo (To - prevTo, first edge absolute), offset
//	numVisits
//	repeated runs until numVisits consumed: rank, runLength
//
// The run-length body is what makes repeated decompression costly enough for
// the CachedGBWT to matter, mirroring the GBZ/GBWT byte layout.

// appendRecord appends the record with the given edges and body to buf.
func appendRecord(buf []byte, edges []Edge, ranks []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	prev := uint64(0)
	for i, e := range edges {
		to := uint64(e.To)
		if i == 0 {
			buf = binary.AppendUvarint(buf, to)
		} else {
			buf = binary.AppendUvarint(buf, to-prev)
		}
		prev = to
		buf = binary.AppendUvarint(buf, uint64(e.Offset))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ranks)))
	for i := 0; i < len(ranks); {
		j := i + 1
		for j < len(ranks) && ranks[j] == ranks[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(ranks[i]))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		i = j
	}
	return buf
}

// Refusals of a record body that carry no detail of their own — the loader
// names the record when it wraps them — so the decoder, which hot paths
// reach, formats nothing for them.
var (
	errTruncated  = errors.New("gbwt: truncated record")
	errEdgeOrder  = errors.New("gbwt: record's edges do not ascend in To, or one lies beyond uint32 node IDs or int32 offsets")
	errVisitCount = errors.New("gbwt: record's visit count is not the one the index holds, or exceeds int32")
)

// maxVisits bounds a record's visit count: SearchState addresses visits with
// int32 offsets, so a body claiming more could never be searched.
const maxVisits = math.MaxInt32

// recordSlab is the storage a CachedGBWT decodes its misses into: records,
// edge lists and rank bodies are handed out as capacity-clipped windows of
// chunks that double in size, so a miss costs no allocation of its own and a
// cache that stays small (one per 8-read request on the serving path) never
// pays for a large chunk. A full chunk is not copied — the records handed
// out keep it alive — so windows never move until rewind, which starts the
// current (largest) chunk of each kind over and so overwrites them. A nil
// *recordSlab allocates each part separately, which is the uncached
// GBWT.Record path.
type recordSlab struct {
	recs  []DecodedRecord
	edges []Edge
	ranks []byte
}

// First-chunk sizes, in elements: about a cache line of each.
const (
	slabFirstRecs  = 4
	slabFirstEdges = 8
	slabFirstRanks = 64
)

// slabTake returns a capacity-clipped window of n elements from *chunk,
// starting a chunk of twice the capacity (at least first, at least n) when
// the current one cannot hold it. The window is zeroed only in a new chunk:
// after a rewind it holds what the last batch left, and a decode into a slab
// (which always keeps the ranks) writes both fields of the record and every
// element of the two lists it takes.
func slabTake[T any](chunk *[]T, n, first int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(2*cap(c), first, n))
	}
	lo := len(c)
	c = c[:lo+n]
	*chunk = c
	return c[lo : lo+n : lo+n]
}

// rewind hands the current chunks out again from their start.
func (s *recordSlab) rewind() {
	s.recs, s.edges, s.ranks = s.recs[:0], s.edges[:0], s.ranks[:0]
}

func (s *recordSlab) record() *DecodedRecord {
	if s == nil {
		return new(DecodedRecord)
	}
	return &slabTake(&s.recs, 1, slabFirstRecs)[0]
}

func (s *recordSlab) edgeList(n int) []Edge {
	if s == nil {
		return make([]Edge, n)
	}
	return slabTake(&s.edges, n, slabFirstEdges)
}

func (s *recordSlab) rankBody(n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	return slabTake(&s.ranks, n, slabFirstRanks)
}

// decodeRecord parses the wire format back into a DecodedRecord whose
// storage comes from slab (nil: the heap). visits is the count the caller
// holds for the record — the loader's declared count, GBWT.visits after it —
// and the body must claim exactly that, at most maxVisits, before anything
// is sized from the claim: the count comes straight from the file. Edges
// must ascend strictly in To, the order the search and the extension walk's
// tie-break rely on.
func decodeRecord(buf []byte, visits uint64, slab *recordSlab) (*DecodedRecord, error) {
	return parseRecord(buf, visits, slab, true)
}

// checkRecord is decodeRecord keeping nothing, for the loader, which decodes
// every record only to know that it can be: a body of a few bytes may claim
// 2³¹−1 visits in one run, and a decode would size and fill a 2 GiB rank
// body just to drop it.
func checkRecord(buf []byte, visits uint64) error {
	_, err := parseRecord(buf, visits, nil, false)
	return err
}

// parseRecord is the one reader of the wire format; with keepRanks false it
// checks the runs without storing them and the record it returns has no
// Ranks.
func parseRecord(buf []byte, visits uint64, slab *recordSlab, keepRanks bool) (*DecodedRecord, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated
		}
		pos += n
		return v, nil
	}
	nEdges, err := next()
	if err != nil {
		return nil, err
	}
	if nEdges > maxEdges+1 {
		return nil, fmt.Errorf("gbwt: record claims %d edges", nEdges) //vetgiraffe:ignore hotpath corrupt-input error path, never taken on valid indexes
	}
	rec := slab.record()
	rec.Edges = slab.edgeList(int(nEdges))
	prev := uint64(0)
	for i := range rec.Edges {
		d, err := next() // To − the edge before's To; the first edge's To itself
		if err != nil {
			return nil, err
		}
		off, err := next()
		if err != nil {
			return nil, err
		}
		if i > 0 && d == 0 || d > math.MaxUint32-prev || off > maxVisits {
			return nil, errEdgeOrder
		}
		prev += d
		rec.Edges[i] = Edge{To: NodeID(prev), Offset: int32(off)}
	}
	nVisits, err := next()
	if err != nil {
		return nil, err
	}
	if nVisits > maxVisits || nVisits != visits {
		return nil, errVisitCount
	}
	if keepRanks {
		rec.Ranks = slab.rankBody(int(nVisits))
	}
	for done := uint64(0); done < nVisits; {
		rank, err := next()
		if err != nil {
			return nil, err
		}
		runLen, err := next()
		if err != nil {
			return nil, err
		}
		if rank >= nEdges || runLen == 0 || runLen > nVisits-done {
			return nil, fmt.Errorf("gbwt: bad run (rank %d, len %d) in record", rank, runLen) //vetgiraffe:ignore hotpath corrupt-input error path, never taken on valid indexes
		}
		if keepRanks {
			run := rec.Ranks[done : done+runLen]
			for k := range run {
				run[k] = byte(rank)
			}
		}
		done += runLen
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("gbwt: %d trailing bytes in record", len(buf)-pos) //vetgiraffe:ignore hotpath corrupt-input error path, never taken on valid indexes
	}
	return rec, nil
}

// CompressedSize returns the total compressed byte size of all records, the
// figure that stands in for the GBZ payload size.
func (g *GBWT) CompressedSize() int {
	n := 0
	for _, c := range g.comp {
		n += len(c)
	}
	return n
}
