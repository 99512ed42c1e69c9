package repro

// One benchmark per table and figure of the paper's evaluation (the mapping
// lives in DESIGN.md §2). Each benchmark exercises the measured core of its
// experiment at a reduced scale; cmd/benchreport regenerates the full printed
// artefacts (all of them, or the steps named by -only).

import (
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/experiments"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchFixture caches one scaled A-human bundle across benchmarks.
type benchFixture struct {
	bundle  *workload.Bundle
	file    *gbz.File
	records []seeds.ReadSeeds
	indexes *giraffe.Indexes
}

var (
	fixOnce sync.Once
	fix     benchFixture
	fixErr  error
)

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		bundle, err := workload.Generate(workload.AHuman().Scaled(0.3))
		if err != nil {
			fixErr = err
			return
		}
		records, err := bundle.CaptureSeeds()
		if err != nil {
			fixErr = err
			return
		}
		file := bundle.GBZ()
		indexes, err := giraffe.BuildIndexes(file)
		if err != nil {
			fixErr = err
			return
		}
		fix = benchFixture{bundle: bundle, file: file, records: records, indexes: indexes}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return &fix
}

// BenchmarkTable1CodeSize measures the repository introspection behind
// Table I (code-size comparison).
func BenchmarkTable1CodeSize(b *testing.B) {
	s := experiments.NewSuite(experiments.Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1("."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Timeline measures the 16-thread traced parent run behind
// the Figure 2 timeline.
func BenchmarkFigure2Timeline(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(16)
		if _, err := giraffe.Map(f.indexes, f.bundle.Reads, giraffe.Options{
			Threads: 16, BatchSize: 8, Trace: rec,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Regions measures the traced parent run whose region totals
// produce Figure 3.
func BenchmarkFigure3Regions(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(2)
		if _, err := giraffe.Map(f.indexes, f.bundle.Reads, giraffe.Options{
			Threads: 2, BatchSize: 64, Trace: rec,
		}); err != nil {
			b.Fatal(err)
		}
		rec.Shares(trace.RegionIO, trace.RegionParse)
	}
}

// BenchmarkFigure4Scaling measures the serial parent mapping that anchors
// the Figure 4 strong-scaling projection.
func BenchmarkFigure4Scaling(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := giraffe.Map(f.indexes, f.bundle.Reads, giraffe.Options{Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4TopDown measures the counter-instrumented parent run behind
// the Table IV top-down split.
func BenchmarkTable4TopDown(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := counters.NewDefaultHierarchy()
		if _, err := giraffe.Map(f.indexes, f.bundle.Reads, giraffe.Options{Threads: 1, Probe: h}); err != nil {
			b.Fatal(err)
		}
		c := h.Snapshot(counters.DefaultCycleModel)
		c.TopDownSplit(counters.DefaultCycleModel)
	}
}

// BenchmarkTable5Counters measures the counter-instrumented proxy run of the
// Table V hardware-counter validation.
func BenchmarkTable5Counters(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := counters.NewDefaultHierarchy()
		if _, err := core.Run(f.file, f.records, core.Options{Threads: 1, Probe: h}); err != nil {
			b.Fatal(err)
		}
		h.Snapshot(counters.DefaultCycleModel)
	}
}

// BenchmarkTable6ProxyVsParent measures the proxy side of the Table VI
// execution-time comparison.
func BenchmarkTable6ProxyVsParent(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(f.file, f.records, core.Options{Threads: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Systems measures one serial proxy run plus the full
// four-machine thread-sweep projection of Figure 5.
func BenchmarkFigure5Systems(b *testing.B) {
	f := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(f.file, f.records, core.Options{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		w := machine.Workload{
			SerialRefSec: res.Makespan.Seconds(),
			Reads:        len(f.records),
			WorkingSetMB: f.bundle.WorkingSetMB(256, 96),
			MemGB:        1,
		}
		for _, m := range machine.All() {
			for th := 1; th <= m.MaxThreads(); th *= 2 {
				if _, err := m.SimTime(w, th); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTable7Fastest measures the per-machine fastest-time search of
// Table VII (model-only; the serial anchor is amortised).
func BenchmarkTable7Fastest(b *testing.B) {
	f := fixture(b)
	res, err := core.Run(f.file, f.records, core.Options{Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := machine.Workload{
		SerialRefSec: res.Makespan.Seconds(),
		Reads:        len(f.records),
		WorkingSetMB: f.bundle.WorkingSetMB(256, 96),
		MemGB:        1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range machine.All() {
			best := math.Inf(1)
			for th := 1; th <= m.MaxThreads(); th++ {
				t, err := m.SimTime(w, th)
				if err != nil {
					b.Fatal(err)
				}
				if t < best {
					best = t
				}
			}
		}
	}
}

// BenchmarkFigure6Capacity measures the capacity sweep's extreme points: the
// proxy with caching disabled versus a 4096-entry cache.
func BenchmarkFigure6Capacity(b *testing.B) {
	f := fixture(b)
	for _, bc := range []struct {
		name string
		cap  int
	}{{"nocache", -1}, {"cc256", 256}, {"cc4096", 4096}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(f.file, f.records, core.Options{
					Threads: 1, CacheCapacity: bc.cap,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7Tuning measures one grid point of the Figure 7 tuning
// sweep per scheduler.
func BenchmarkFigure7Tuning(b *testing.B) {
	f := fixture(b)
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(f.file, f.records, core.Options{
					Threads: 2, BatchSize: 128, CacheCapacity: 1024, Scheduler: kind,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable8BestConfig measures a reduced tuning grid — the search that
// produces Table VIII's best-parameter rows.
func BenchmarkTable8BestConfig(b *testing.B) {
	f := fixture(b)
	space := autotune.Space{
		Schedulers: []sched.Kind{sched.Dynamic, sched.WorkStealing},
		BatchSizes: []int{64, 512},
		Capacities: []int{256, 2048},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grid, err := autotune.RunGrid(f.file, f.records, 2, space, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := grid.Best(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Heatmap measures heat-map generation (grid + projection +
// CSV) from a cached grid.
func BenchmarkFigure8Heatmap(b *testing.B) {
	f := fixture(b)
	space := autotune.Space{
		Schedulers: []sched.Kind{sched.Dynamic},
		BatchSizes: []int{64, 512},
		Capacities: []int{256, 2048},
	}
	grid, err := autotune.RunGrid(f.file, f.records, 2, space, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	grid.Input = f.bundle.Spec.Name
	proj, err := autotune.Project(grid, f.bundle, machine.ChiIntel, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := autotune.WriteHeatmapCSV(io.Discard, grid, proj, space); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidation measures the §VI-a two-way output comparison.
func BenchmarkValidation(b *testing.B) {
	f := fixture(b)
	parent, err := giraffe.Map(f.indexes, f.bundle.Reads, giraffe.Options{Threads: 2, CaptureSeeds: true})
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := core.Run(f.file, parent.Captured, core.Options{Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Validate(parent.Extensions, proxy.Extensions)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Match() {
			b.Fatal(rep)
		}
	}
}
