//go:build !race

package serve

import (
	"fmt"
	"testing"

	"repro/internal/extend"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/vgraph"
)

// The codec's two halves allocate nothing of their own once their buffers
// have grown: a warm scratch decodes a request in place, and a response is
// rendered into a buffer with room for it. TestMapAllocations counts the
// whole request, whose 22 allowed objects would hide one more here; these
// count the codec alone, exactly.

func TestDecodeAllocatesNothingWarm(t *testing.T) {
	const reads = 8
	body := []byte(`{"client":"alloc","deadline_ms":250,"reads":[`)
	for i := range reads {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"name":"read-é-%d","seq":"ACGTACGTACGTA"}`, i)
	}
	body = append(body, "]}"...)

	sc := new(reqScratch)
	sc.body.Write(body)
	if err := sc.decode(reads); err != nil {
		t.Fatal(err)
	}
	if len(sc.reads) != reads {
		t.Fatalf("decoded %d reads, want %d", len(sc.reads), reads)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := sc.decode(reads); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decoding a %d-read request into a warm scratch allocates %v objects, want 0", reads, got)
	}
}

func TestAppendMapResponseAllocatesNothingWarm(t *testing.T) {
	const reads = 8
	recs := make([]seeds.ReadSeeds, reads)
	exts := make([][]extend.Extension, reads)
	for i := range recs {
		recs[i].Read.Name = fmt.Sprintf("read<%d>", i) // escaped on the way out
		for j := range i % 3 {
			exts[i] = append(exts[i], extend.Extension{
				StartPos:  vgraph.Position{Node: vgraph.NodeID(100 + i), Off: int32(j)},
				ReadStart: 0, ReadEnd: 150, Score: int32(140 + j), Rev: j == 1,
				Mismatches: []int32{int32(10 * j), 77},
			})
		}
	}
	id := trace.ID{Hi: 1, Lo: 2}
	dst := appendMapResponse(nil, id, "client", 1.25, recs, exts)
	if got := testing.AllocsPerRun(100, func() {
		dst = appendMapResponse(dst[:0], id, "client", 1.25, recs, exts)
	}); got != 0 {
		t.Errorf("rendering a %d-read response into a warm buffer allocates %v objects, want 0", reads, got)
	}
}
