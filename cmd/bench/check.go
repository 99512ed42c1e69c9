package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbz"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// mappedShareFloor is the sanity floor on the share of reads with at least
// one extension: the generated reads are cut from indexed haplotypes with a
// sub-percent error rate, so nearly all must map.
const mappedShareFloor = 0.99

// expected is the output a workload must produce, in the form a child
// process checks against: the reference pass's CSV digest and one hash per
// read, so the child compares read by read without holding a second copy of
// every extension. The reference is a pass of the same commit on its
// slowest, simplest path (one thread, no record cache, batch Run) — the
// anchor leg of the repository's five-leg identity — run by the parent
// process on the in-memory inputs, so the child's file round trip is inside
// what is checked.
type expected struct {
	CSVSHA256  string   `json:"csv_sha256"`
	ReadHashes []uint64 `json:"read_hashes"`
	// Invalid counts reads whose reference extensions break an invariant
	// (plus one if the mapped share is below its floor); Note has the first.
	Invalid int64  `json:"invalid"`
	Note    string `json:"note,omitempty"`
}

// buildExpected maps recs on the reference path and validates the result
// against the graph with checks that share no code with the kernels. It
// also returns the reference extensions themselves.
func buildExpected(f *gbz.File, recs []seeds.ReadSeeds) (*expected, [][]extend.Extension, error) {
	res, err := core.Run(f, recs, core.Options{Threads: 1, CacheCapacity: -1})
	if err != nil {
		return nil, nil, fmt.Errorf("reference pass: %w", err)
	}
	exp := &expected{ReadHashes: make([]uint64, len(recs))}
	exp.CSVSHA256, err = csvDigest(recs, res.Extensions)
	if err != nil {
		return nil, nil, err
	}
	mapped := 0
	for i := range recs {
		exp.ReadHashes[i] = hashExtensions(res.Extensions[i])
		if len(res.Extensions[i]) > 0 {
			mapped++
		}
		if err := checkRead(f.Graph, &recs[i].Read, res.Extensions[i]); err != nil {
			exp.fail(fmt.Sprintf("read %s: %v", recs[i].Read.Name, err))
		}
	}
	if share := float64(mapped) / float64(len(recs)); share < mappedShareFloor {
		exp.fail(fmt.Sprintf("mapped share %.4f is below the %.2f floor", share, mappedShareFloor))
	}
	return exp, res.Extensions, nil
}

func (e *expected) fail(note string) {
	e.Invalid++
	if e.Note == "" {
		e.Note = note
	}
}

// csvDigest is the SHA-256 of the proxy's CSV output over the records.
func csvDigest(recs []seeds.ReadSeeds, exts [][]extend.Extension) (string, error) {
	h := sha256.New()
	if err := core.WriteCSV(h, recs, &core.Result{Extensions: exts}); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashExtensions folds every field of a read's extensions, in order, into
// one FNV-1a hash: two reads hash equal exactly when a field-by-field
// comparison would call them equal (up to 64-bit collisions).
func hashExtensions(exts []extend.Extension) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(exts)))
	for i := range exts {
		e := &exts[i]
		put(uint64(e.StartPos.Node))
		put(uint64(uint32(e.StartPos.Off)))
		put(uint64(uint32(e.ReadStart)))
		put(uint64(uint32(e.ReadEnd)))
		put(uint64(uint32(e.Score)))
		if e.Rev {
			put(1)
		} else {
			put(0)
		}
		put(uint64(len(e.Mismatches)))
		for _, m := range e.Mismatches {
			put(uint64(uint32(m)))
		}
		put(uint64(len(e.Path)))
		for _, n := range e.Path {
			put(uint64(n))
		}
	}
	return h.Sum64()
}

// diff counts the reads of got whose extensions differ from the reference,
// read by read; first is the index of the first such read (-1 if none).
func (e *expected) diff(got [][]extend.Extension) (failed int64, first int) {
	first = -1
	if len(got) != len(e.ReadHashes) {
		return int64(len(e.ReadHashes)), 0
	}
	for i := range got {
		if hashExtensions(got[i]) != e.ReadHashes[i] {
			failed++
			if first < 0 {
				first = i
			}
		}
	}
	return failed, first
}

// checkRead validates one read's extensions without the kernels' help: the
// interval lies inside the read, the path is a walk in the graph starting at
// StartPos, re-reading the walk's bases against the oriented read finds
// exactly the listed mismatches, the score follows from the interval and the
// mismatch count under the default scoring, and the list is in descending
// score order.
func checkRead(g *vgraph.Graph, read *dna.Read, exts []extend.Extension) error {
	p := extend.DefaultParams()
	var rev dna.Sequence
	for k := range exts {
		e := &exts[k]
		if k > 0 && e.Score > exts[k-1].Score {
			return fmt.Errorf("extension %d scores %d after %d: not in descending score order", k, e.Score, exts[k-1].Score)
		}
		n := int32(len(read.Seq))
		if e.ReadStart < 0 || e.ReadStart >= e.ReadEnd || e.ReadEnd > n {
			return fmt.Errorf("extension %d: interval [%d,%d) outside the %d-base read", k, e.ReadStart, e.ReadEnd, n)
		}
		if len(e.Mismatches) > p.MaxMismatches {
			return fmt.Errorf("extension %d: %d mismatches exceed the budget of %d", k, len(e.Mismatches), p.MaxMismatches)
		}
		seq := read.Seq
		if e.Rev {
			if rev == nil {
				rev = read.Seq.RevComp()
			}
			seq = rev
		}
		if len(e.Path) == 0 || e.Path[0] != e.StartPos.Node || !g.Has(e.StartPos.Node) {
			return fmt.Errorf("extension %d: path does not start at node %d", k, e.StartPos.Node)
		}
		var mism []int32
		step, off := 0, e.StartPos.Off
		for i := e.ReadStart; i < e.ReadEnd; i++ {
			if int(off) >= g.SeqLen(e.Path[step]) {
				if step+1 >= len(e.Path) || !g.HasEdge(e.Path[step], e.Path[step+1]) {
					return fmt.Errorf("extension %d: path leaves the graph after node %d", k, e.Path[step])
				}
				step, off = step+1, 0
			}
			if g.BaseAt(e.Path[step], off) != seq[i] {
				mism = append(mism, i)
			}
			off++
		}
		if !slices.Equal(mism, e.Mismatches) {
			return fmt.Errorf("extension %d: walking the path finds mismatches %v, the kernel reported %v", k, mism, e.Mismatches)
		}
		score := (e.Len()-int32(len(mism)))*p.MatchScore - int32(len(mism))*p.MismatchPenalty
		if e.ReadStart == 0 {
			score += p.FullLengthBonus
		}
		if e.ReadEnd == n {
			score += p.FullLengthBonus
		}
		if score != e.Score {
			return fmt.Errorf("extension %d: interval and mismatches give score %d, the kernel reported %d", k, score, e.Score)
		}
	}
	return nil
}
