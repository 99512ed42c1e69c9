package gbwt_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gbwt"
	"repro/internal/workload"
)

func serialize(t testing.TB, g *gbwt.GBWT) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// haplotypes returns the input set's haplotype paths and the same paths
// reversed, the two path sets a Bidirectional index is built from.
func haplotypes(tb testing.TB, spec workload.Spec) (fwd, rev [][]gbwt.NodeID) {
	tb.Helper()
	b, err := workload.Generate(spec.Scaled(0.001))
	if err != nil {
		tb.Fatal(err)
	}
	rev = make([][]gbwt.NodeID, len(b.Haps))
	for i, p := range b.Haps {
		rev[i] = slices.Clone(p)
		slices.Reverse(rev[i])
	}
	return b.Haps, rev
}

// TestNewMatchesReferenceOnWorkloads: on the haplotypes of all four input
// sets, in both directions, New serializes to the reference builder's bytes.
func TestNewMatchesReferenceOnWorkloads(t *testing.T) {
	for _, spec := range workload.AllSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			fwd, rev := haplotypes(t, spec)
			for dir, paths := range map[string][][]gbwt.NodeID{"forward": fwd, "reverse": rev} {
				got, err := gbwt.New(paths)
				if err != nil {
					t.Fatalf("%s: %v", dir, err)
				}
				want, err := gbwt.BuildReference(paths)
				if err != nil {
					t.Fatalf("%s reference: %v", dir, err)
				}
				if !bytes.Equal(serialize(t, got), serialize(t, want)) {
					t.Fatalf("%s: New and the reference serialize differently", dir)
				}
			}
		})
	}
}

// TestNewAllocations: New allocates a fixed set of buffers, not a few per
// node — the reference builder takes ≈157k allocations on A-human's reverse
// paths. B-yeast has a different node count and must stay inside the same
// budget.
func TestNewAllocations(t *testing.T) {
	const budget = 32
	for _, spec := range []workload.Spec{workload.AHuman(), workload.BYeast()} {
		_, rev := haplotypes(t, spec)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := gbwt.New(rev); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations", spec.Name, allocs)
		if allocs > budget {
			t.Errorf("%s: New made %v allocations, budget %d", spec.Name, allocs, budget)
		}
	}
}

// BenchmarkNew builds the reverse index of A-human, the build every batch
// run pays for in core.NewMapper.
func BenchmarkNew(b *testing.B) {
	_, rev := haplotypes(b, workload.AHuman())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbwt.New(rev); err != nil {
			b.Fatal(err)
		}
	}
}
