package giraffe

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testBundle(t testing.TB, scale float64) *workload.Bundle {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildIndexes runs in make race's -short leg: BuildIndexes builds its
// three indexes on concurrent goroutines.
func TestBuildIndexes(t *testing.T) {
	b := testBundle(t, 0.02)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	if ix.MinIx.NumKmers() == 0 {
		t.Error("empty minimizer index")
	}
	if _, err := BuildIndexes(nil); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := BuildIndexes(&gbz.File{}); err == nil {
		t.Error("empty file accepted")
	}
}

// TestBuildIndexesReportsMissingNode corrupts an embedded path (Path aliases
// graph storage; AddPath would refuse it) so that it names a node the graph
// lacks, and expects the minimizer build's error with its wrapping.
func TestBuildIndexesReportsMissingNode(t *testing.T) {
	f := testBundle(t, 0.02).GBZ()
	missing := gbwt.NodeID(f.Graph.NumNodes() + 1)
	f.Graph.Path(1)[3] = missing
	_, err := BuildIndexes(f)
	want := fmt.Sprintf("giraffe: building minimizer index: minimizer: path 1 references missing node %d", missing)
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

func TestMapSingleThread(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end path already covered threaded; skipped in -short race runs")
	}
	b := testBundle(t, 0.05)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(ix, b.Reads, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) != len(b.Reads) {
		t.Fatalf("%d alignments for %d reads", len(res.Alignments), len(b.Reads))
	}
	mapped := 0
	for i, al := range res.Alignments {
		if al.ReadName != b.Reads[i].Name {
			t.Fatalf("alignment %d names %q, want %q", i, al.ReadName, b.Reads[i].Name)
		}
		if al.Mapped {
			mapped++
			if al.MappingQuality < 0 || al.MappingQuality > 60 {
				t.Fatalf("mapq %d out of range", al.MappingQuality)
			}
			if al.Best.Score <= 0 {
				t.Fatalf("mapped read %d has score %d", i, al.Best.Score)
			}
		}
	}
	// Reads are sampled from the indexed haplotypes with a low error rate:
	// the vast majority must map.
	if frac := float64(mapped) / float64(len(b.Reads)); frac < 0.9 {
		t.Errorf("only %.0f%% of reads mapped", frac*100)
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	b := testBundle(t, 0.05)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Map(ix, b.Reads, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 8} {
		par, err := Map(ix, b.Reads, Options{Threads: threads, BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Extensions, par.Extensions) {
			t.Fatalf("%d-thread run changed extensions", threads)
		}
		if !reflect.DeepEqual(serial.Alignments, par.Alignments) {
			t.Fatalf("%d-thread run changed alignments", threads)
		}
	}
}

func TestMapCapturesSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end path already covered threaded; skipped in -short race runs")
	}
	b := testBundle(t, 0.03)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(ix, b.Reads, Options{Threads: 1, CaptureSeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Captured) != len(b.Reads) {
		t.Fatalf("captured %d, want %d", len(res.Captured), len(b.Reads))
	}
	nonEmpty := 0
	for i, c := range res.Captured {
		if c.Read.Name != b.Reads[i].Name {
			t.Fatalf("captured record %d names %q", i, c.Read.Name)
		}
		if len(c.Seeds) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("no captured seeds")
	}
}

func TestMapWithTrace(t *testing.T) {
	b := testBundle(t, 0.03)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(2)
	if _, err := Map(ix, b.Reads, Options{Threads: 2, BatchSize: 4, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	shares := rec.Shares()
	if len(shares) == 0 {
		t.Fatal("no trace regions recorded")
	}
	regions := map[string]bool{}
	for _, s := range shares {
		regions[s.Region] = true
	}
	for _, want := range []string{trace.RegionCluster, trace.RegionThresholdC, trace.RegionMinimizer, trace.RegionPostproc} {
		if !regions[want] {
			t.Errorf("region %q missing from trace", want)
		}
	}
}

func TestMapWithProbe(t *testing.T) {
	b := testBundle(t, 0.02)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	h := counters.NewDefaultHierarchy()
	if _, err := Map(ix, b.Reads, Options{Threads: 1, Probe: h}); err != nil {
		t.Fatal(err)
	}
	c := h.Snapshot(counters.DefaultCycleModel)
	if c.Instr == 0 || c.L1DA == 0 {
		t.Errorf("probe recorded nothing: %+v", c)
	}
	// Probe must be dropped on multithreaded runs.
	h2 := counters.NewDefaultHierarchy()
	if _, err := Map(ix, b.Reads, Options{Threads: 4, Probe: h2}); err != nil {
		t.Fatal(err)
	}
	if c2 := h2.Snapshot(counters.DefaultCycleModel); c2.Instr != 0 {
		t.Error("multithreaded run drove the probe")
	}
}

func TestMapNilIndexes(t *testing.T) {
	if _, err := Map(nil, nil, Options{}); err == nil {
		t.Error("nil indexes accepted")
	}
}

func TestPostprocessUnmapped(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end path already covered threaded; skipped in -short race runs")
	}
	b := testBundle(t, 0.02)
	ix, err := BuildIndexes(b.GBZ())
	if err != nil {
		t.Fatal(err)
	}
	// A poly-A read (absent from any haplotype at this length) must come
	// back unmapped with zero mapping quality.
	garbage := dna.Read{Name: "garbage", Seq: make(dna.Sequence, 148), Fragment: -1}
	res, err := Map(ix, []dna.Read{garbage}, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	al := res.Alignments[0]
	if al.Mapped {
		t.Errorf("garbage read mapped: %+v", al)
	}
	if al.MappingQuality != 0 {
		t.Errorf("unmapped read has mapq %d", al.MappingQuality)
	}
}
