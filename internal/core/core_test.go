package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/snarl"
	"repro/internal/trace"
	"repro/internal/vgraph"
	"repro/internal/workload"
)

// fixture generates a bundle and captures its seeds — the proxy's inputs.
func fixture(t testing.TB, scale float64) (*gbz.File, []seeds.ReadSeeds, *workload.Bundle) {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	return b.GBZ(), recs, b
}

func TestRunBasic(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	res, err := core.Run(f, recs, core.Options{Threads: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Extensions) != len(recs) {
		t.Fatalf("%d extension sets for %d records", len(res.Extensions), len(recs))
	}
	withExt := 0
	for _, exts := range res.Extensions {
		if len(exts) > 0 {
			withExt++
		}
	}
	if frac := float64(withExt) / float64(len(recs)); frac < 0.9 {
		t.Errorf("only %.0f%% of reads extended", frac*100)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if res.Cache.Accesses == 0 {
		t.Error("no cache activity recorded")
	}
}

func TestRunNilFile(t *testing.T) {
	if _, err := core.Run(nil, nil, core.Options{}); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := core.Run(&gbz.File{}, nil, core.Options{}); err == nil {
		t.Error("empty file accepted")
	}
}

// TestProxyMatchesParent is the §VI-a functional validation: the proxy's
// outputs must exactly equal the parent's exported extensions, in both
// directions, for every scheduler and cache capacity.
func TestProxyMatchesParent(t *testing.T) {
	f, _, b := fixture(t, 0.08)
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := giraffe.Map(ix, b.Reads, giraffe.Options{Threads: 2, BatchSize: 8, CaptureSeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheduler := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		for _, capacity := range []int{-1, 64, 256, 4096} {
			res, err := core.Run(f, parent.Captured, core.Options{
				Threads: 3, BatchSize: 4, Scheduler: scheduler, CacheCapacity: capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Validate(parent.Extensions, res.Extensions)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match() {
				t.Fatalf("sched=%v cap=%d: %s", scheduler, capacity, rep)
			}
		}
	}
}

func TestValidateDetectsDrift(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	res, err := core.Run(f, recs, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Identical → match.
	rep, err := core.Validate(res.Extensions, res.Extensions)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match() {
		t.Fatalf("self-validation failed: %s", rep)
	}
	// Change one extension's identity, one field at a time: both directions
	// must flag it. A change outside the identity (the mismatch list follows
	// from the rest) still matches. A read with one extension, so that no
	// change can land on a neighbour's identity.
	row := -1
	for i := range res.Extensions {
		if len(res.Extensions[i]) == 1 {
			row = i
			break
		}
	}
	if row < 0 {
		t.Skip("no extensions to mutate")
	}
	for _, tc := range []struct {
		name  string
		edit  func(e *extend.Extension)
		match bool
	}{
		{"node", func(e *extend.Extension) { e.StartPos.Node++ }, false},
		{"offset", func(e *extend.Extension) { e.StartPos.Off++ }, false},
		{"read start", func(e *extend.Extension) { e.ReadStart++ }, false},
		{"read end", func(e *extend.Extension) { e.ReadEnd++ }, false},
		{"strand", func(e *extend.Extension) { e.Rev = !e.Rev }, false},
		{"score", func(e *extend.Extension) { e.Score++ }, false},
		{"mismatches", func(e *extend.Extension) { e.Mismatches = append([]int32{-1}, e.Mismatches...) }, true},
	} {
		mutated := make([][]extend.Extension, len(res.Extensions))
		copy(mutated, res.Extensions)
		mutated[row] = append([]extend.Extension(nil), res.Extensions[row]...)
		tc.edit(&mutated[row][0])
		rep, err = core.Validate(res.Extensions, mutated)
		if err != nil {
			t.Fatal(err)
		}
		if tc.match {
			if !rep.Match() {
				t.Errorf("%s changed: %s, want a match", tc.name, rep)
			}
			continue
		}
		if rep.MissingInProxy != 1 || rep.ExtraInProxy != 1 {
			t.Errorf("%s changed: missing=%d extra=%d, want 1,1", tc.name, rep.MissingInProxy, rep.ExtraInProxy)
		}
		if !strings.Contains(rep.String(), "FAIL") {
			t.Errorf("%s changed: report string %q lacks FAIL", tc.name, rep.String())
		}
	}
	// Length mismatch is an error.
	if _, err := core.Validate(res.Extensions, res.Extensions[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRunDeterministicAcrossSchedulers(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	var all [][][]extend.Extension
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		res, err := core.Run(f, recs, core.Options{Threads: 4, BatchSize: 4, Scheduler: kind})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res.Extensions)
	}
	for i := 1; i < len(all); i++ {
		if !reflect.DeepEqual(all[0], all[i]) {
			t.Fatalf("scheduler %d changed output", i)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	res, err := core.Run(f, recs, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, recs, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "read,node,offset,strand,read_start,read_end,score,mismatches" {
		t.Errorf("header = %q", lines[0])
	}
	total := 0
	for _, exts := range res.Extensions {
		total += len(exts)
	}
	if len(lines)-1 != total {
		t.Errorf("%d CSV rows for %d extensions", len(lines)-1, total)
	}
	// Mismatched lengths rejected.
	if err := core.WriteCSV(&buf, recs[:1], res); err == nil {
		t.Error("mismatched record count accepted")
	}
}

// TestCSVRowsMatchFmt holds the strconv row renderer to the fmt format it
// replaced, byte for byte, on a run's extensions plus the shapes a run here
// does not produce (reverse strand with no mismatches, a negative score), and
// checks that the io.Writer form costs no allocation per record.
func TestCSVRowsMatchFmt(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	res, err := core.Run(f, recs, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	odd := seeds.ReadSeeds{}
	odd.Read.Name = "odd/1"
	recs = append(recs, odd)
	res.Extensions = append(res.Extensions, []extend.Extension{
		{StartPos: vgraph.Position{Node: 4294967295, Off: 0}, Rev: true, ReadEnd: 150, Score: -7},
		{StartPos: vgraph.Position{Node: 1, Off: 31}, ReadStart: 3, ReadEnd: 9, Score: 2, Mismatches: []int32{4, 5, 8}},
	})
	var got, want bytes.Buffer
	for i := range recs {
		if err := core.WriteCSVRecord(&got, &recs[i], res.Extensions[i]); err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Extensions[i] {
			strand := "+"
			if e.Rev {
				strand = "-"
			}
			mism := make([]string, len(e.Mismatches))
			for j, m := range e.Mismatches {
				mism[j] = fmt.Sprint(m)
			}
			fmt.Fprintf(&want, "%s,%d,%d,%s,%d,%d,%d,%s\n", recs[i].Read.Name, e.StartPos.Node, e.StartPos.Off,
				strand, e.ReadStart, e.ReadEnd, e.Score, strings.Join(mism, ";"))
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("rows differ from the fmt rendering:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	last := len(recs) - 1
	if n := testing.AllocsPerRun(100, func() { _ = core.WriteCSVRecord(io.Discard, &recs[last], res.Extensions[last]) }); n != 0 {
		t.Errorf("%.1f allocations per WriteCSVRecord, want 0", n)
	}
}

func TestRunWithTraceAndStats(t *testing.T) {
	f, recs, _ := fixture(t, 0.04)
	for _, tc := range []struct {
		name                     string
		recorder, threads, batch int
		kind                     sched.Kind
	}{
		{"sized", 2, 2, 4, sched.Dynamic},
		// Run grows an undersized recorder to its thread count; under the
		// static split every worker is certain to record into its own buffer.
		{"undersized", 1, 4, 8, sched.Static},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder(tc.recorder)
			res, err := core.Run(f, recs, core.Options{
				Threads: tc.threads, BatchSize: tc.batch, Scheduler: tc.kind, Trace: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Workers() < tc.threads {
				t.Errorf("recorder has %d buffers for %d threads", rec.Workers(), tc.threads)
			}
			shares := rec.Shares()
			regions := map[string]bool{}
			for _, s := range shares {
				regions[s.Region] = true
			}
			if !regions[trace.RegionCluster] || !regions[trace.RegionThresholdC] {
				t.Errorf("missing kernel regions in trace: %v", shares)
			}
			var processed int64
			for _, p := range res.Sched.Processed {
				processed += p
			}
			if processed != int64(len(recs)) {
				t.Errorf("sched processed %d of %d", processed, len(recs))
			}
		})
	}
}

// TestRunRefusesSeedsOutsideTheGraph: a record that names what the graph or
// its read lacks (as a corrupt capture file can) ends Run with an error that
// names it — before scheduling, where the kernels would have indexed out of
// range on a goroutine no caller can recover. The mapper is unharmed: the
// valid workload still maps to the same extensions.
func TestRunRefusesSeedsOutsideTheGraph(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{Threads: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i := range recs {
		if len(recs[i].Seeds) > 0 {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("fixture has no seeded read")
	}
	seed := recs[victim].Seeds[0]
	for _, c := range []struct {
		name   string
		mutate func(s *seeds.Seed)
	}{
		{"node 0", func(s *seeds.Seed) { s.Pos.Node = 0 }},
		{"node 1<<30", func(s *seeds.Seed) { s.Pos.Node = 1 << 30 }},
		{"Off -5", func(s *seeds.Seed) { s.Pos.Off = -5 }},
		{"Off = SeqLen", func(s *seeds.Seed) { s.Pos.Off = int32(f.Graph.SeqLen(s.Pos.Node)) }},
		{"ReadOff = len(read)", func(s *seeds.Seed) { s.ReadOff = int32(len(recs[victim].Read.Seq)) }},
	} {
		bad := append([]seeds.ReadSeeds(nil), recs...)
		bad[victim].Seeds = append([]seeds.Seed(nil), recs[victim].Seeds...)
		c.mutate(&bad[victim].Seeds[0])
		_, err := m.Run(bad)
		if err == nil {
			t.Errorf("%s: Run accepted %+v", c.name, bad[victim].Seeds[0])
			continue
		}
		for _, part := range []string{fmt.Sprintf("record %d:", victim), fmt.Sprintf("%q seed 0", recs[victim].Read.Name)} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not name %s", c.name, err, part)
			}
		}
	}
	if recs[victim].Seeds[0] != seed {
		t.Fatal("the test mutated the fixture")
	}
	got, err := m.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Extensions, want.Extensions) {
		t.Error("valid records map differently after the refused runs")
	}
}

// TestNewMapperRejectsUndecomposableGraph: a GBZ whose graph has two
// sources (a path starting on each) has no snarl tree, so both start-up
// routes refuse it with snarl.ErrNotDecomposable instead of mapping without
// a distance index.
func TestNewMapperRejectsUndecomposableGraph(t *testing.T) {
	g := &vgraph.Graph{}
	var ids []vgraph.NodeID
	for _, s := range []string{"ACGTACGTAACCGGTT", "TTGGCCAATGCATGCA", "GATTACAGATTACAGG", "CCCTTTAAAGGGTCAG"} {
		id, err := g.AddNode(dna.MustParse(s))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	src1, src2, mid, end := ids[0], ids[1], ids[2], ids[3]
	for _, e := range [][2]vgraph.NodeID{{src1, mid}, {src2, mid}, {mid, end}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	paths := [][]vgraph.NodeID{{src1, mid, end}, {src2, mid, end}}
	for _, p := range paths {
		if _, err := g.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := gbwt.New(paths)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gbz.Write(&buf, &gbz.File{Graph: g, Index: idx}); err != nil {
		t.Fatal(err)
	}
	f, err := gbz.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := giraffe.BuildIndexes(f); !errors.Is(err, snarl.ErrNotDecomposable) {
		t.Errorf("giraffe.BuildIndexes: error %v, want snarl.ErrNotDecomposable", err)
	}
	if _, err := core.NewMapper(f, core.Options{}); !errors.Is(err, snarl.ErrNotDecomposable) {
		t.Errorf("core.NewMapper: error %v, want snarl.ErrNotDecomposable", err)
	}
}

func TestRunSingleThreadProbe(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	h := counters.NewDefaultHierarchy()
	if _, err := core.Run(f, recs, core.Options{Threads: 1, Probe: h}); err != nil {
		t.Fatal(err)
	}
	if c := h.Snapshot(counters.DefaultCycleModel); c.Instr == 0 {
		t.Error("probe recorded nothing on single-thread run")
	}
}

func TestCacheCapacityAffectsStats(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	disabled, err := core.Run(f, recs, core.Options{Threads: 1, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := core.Run(f, recs, core.Options{Threads: 1, CacheCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if disabled.Cache.Hits != 0 {
		t.Errorf("disabled cache had %d hits", disabled.Cache.Hits)
	}
	if cached.Cache.Hits == 0 {
		t.Error("enabled cache had no hits")
	}
	if cached.Cache.Misses >= disabled.Cache.Misses {
		t.Errorf("cache did not reduce decompressions: %d vs %d",
			cached.Cache.Misses, disabled.Cache.Misses)
	}
}
