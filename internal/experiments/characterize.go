package experiments

import (
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/counters"
	"repro/internal/giraffe"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table1Row compares parent and proxy code sizes.
type Table1Row struct {
	System    string
	Lines     int
	Files     int
	DepCounts int
}

// Table1 reproduces the paper's Table I code-size comparison: the paper's
// reported numbers for the C++ originals plus this repository's measured
// counts for its parent emulator and proxy. root is the repository root (""
// uses the working directory).
func (s *Suite) Table1(root string) ([]Table1Row, error) {
	if root == "" {
		root = "."
	}
	countDir := func(dirs ...string) (lines, files int, err error) {
		for _, d := range dirs {
			err = filepath.Walk(filepath.Join(root, d), func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				files++
				lines += strings.Count(string(data), "\n")
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
		}
		return lines, files, nil
	}
	imports := func(dirs ...string) (int, error) {
		fset := token.NewFileSet()
		set := map[string]bool{}
		for _, d := range dirs {
			err := filepath.Walk(filepath.Join(root, d), func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
					return err
				}
				f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
				if err != nil {
					return err
				}
				for _, imp := range f.Imports {
					p := strings.Trim(imp.Path.Value, `"`)
					if !strings.HasPrefix(p, "repro/") {
						set[p] = true
					}
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
		}
		return len(set), nil
	}

	// Parent emulator: what cmd/giraffe links, the full pipeline and every
	// substrate under it (go list -deps ./cmd/giraffe | grep repro/internal)
	// — not the lint framework, the server or this package. Proxy: the
	// critical functions and their direct inputs — matching the paper's
	// framing (the proxy is ~2% of the parent's code base).
	var parentDirs []string
	for _, pkg := range strings.Fields("align cluster core counters dna extend fastq gbwt gbz giraffe minimizer obs sched seeds snarl trace vgraph") {
		parentDirs = append(parentDirs, "internal/"+pkg)
	}
	proxyDirs := []string{"internal/core", "internal/cluster", "internal/extend"}
	pl, pf, err := countDir(parentDirs...)
	if err != nil {
		return nil, err
	}
	ml, mf, err := countDir(proxyDirs...)
	if err != nil {
		return nil, err
	}
	pdeps, err := imports(parentDirs...)
	if err != nil {
		return nil, err
	}
	mdeps, err := imports(proxyDirs...)
	if err != nil {
		return nil, err
	}
	rows := []Table1Row{
		{System: "Giraffe (paper)", Lines: 50000, Files: 350, DepCounts: 50},
		{System: "miniGiraffe (paper)", Lines: 1000, Files: 2, DepCounts: 3},
		{System: "parent emulator (this repo)", Lines: pl, Files: pf, DepCounts: pdeps},
		{System: "proxy core (this repo)", Lines: ml, Files: mf, DepCounts: mdeps},
	}
	s.section("Table I: Giraffe vs miniGiraffe code size")
	for _, r := range rows {
		s.printf("%-30s %7d lines %5d files %4d deps\n", r.System, r.Lines, r.Files, r.DepCounts)
	}
	return rows, nil
}

// Figure2 runs the parent on A-human with the paper's 16 threads, recording
// the per-thread region timeline, and writes it as CSV (the Fig. 2 raw
// data). It returns the recorder for inspection.
func (s *Suite) Figure2(csv io.Writer) (*trace.Recorder, error) {
	b, err := s.Bundle(workload.AHuman())
	if err != nil {
		return nil, err
	}
	ix, err := s.Indexes(workload.AHuman())
	if err != nil {
		return nil, err
	}
	const threads = 16
	rec := trace.NewRecorder(threads)
	// Batch small enough that all 16 threads receive work even on the
	// scaled-down read counts.
	batch := len(b.Reads) / (4 * threads)
	if batch < 1 {
		batch = 1
	}
	if _, err := giraffe.Map(ix, b.Reads, giraffe.Options{Threads: threads, BatchSize: batch, Trace: rec}); err != nil {
		return nil, err
	}
	s.section("Figure 2: Giraffe 16-thread region timeline (A-human)")
	busy := 0
	for w := 0; w < rec.Workers(); w++ {
		if len(rec.Spans(w)) > 0 {
			busy++
		}
	}
	s.printf("threads with recorded work: %d/%d, spans: ", busy, threads)
	total := 0
	for w := 0; w < rec.Workers(); w++ {
		total += len(rec.Spans(w))
	}
	s.printf("%d (timeline CSV follows when requested)\n", total)
	if csv != nil {
		if err := rec.WriteTimelineCSV(csv); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// Figure3Row is one input set's per-region share vector.
type Figure3Row struct {
	Input  string
	Shares []trace.RegionShare
}

// figure3Window is the least mapping time one input's shares are taken over.
// Region spans are wall-clock, so a descheduled worker or a GC cycle adds
// whole milliseconds to whichever region it lands in — and A-human at test
// scale (120 reads) maps in two milliseconds, so its shares would say where
// the stall fell rather than where the time goes.
const figure3Window = 400 * time.Millisecond

// Figure3 reproduces the per-region runtime percentages for all input sets,
// excluding I/O and input parsing as the paper does. The paper's headline:
// process_until_threshold_c dominates (up to ~52% of computation),
// cluster_seeds second. An input that maps in less than figure3Window is
// mapped again into the same recorder until the window is full.
func (s *Suite) Figure3() ([]Figure3Row, error) {
	var rows []Figure3Row
	s.section("Figure 3: per-region share of runtime (excluding IO/parse)")
	for _, spec := range workload.AllSpecs() {
		b, err := s.Bundle(spec)
		if err != nil {
			return nil, err
		}
		ix, err := s.Indexes(spec)
		if err != nil {
			return nil, err
		}
		rec := trace.NewRecorder(s.cfg.Threads)
		for start := time.Now(); ; {
			if _, err := giraffe.Map(ix, b.Reads, giraffe.Options{Threads: s.cfg.Threads, Trace: rec}); err != nil {
				return nil, err
			}
			if time.Since(start) >= figure3Window {
				break
			}
		}
		shares := rec.Shares(trace.RegionIO, trace.RegionParse)
		rows = append(rows, Figure3Row{Input: spec.Name, Shares: shares})
		s.printf("%-8s", spec.Name)
		for _, sh := range shares {
			s.printf("  %s=%.1f%%", sh.Region, sh.Percent)
		}
		s.printf("\n")
	}
	return rows, nil
}

// Figure4Point is one (input, threads) strong-scaling sample of the parent's
// extension stage.
type Figure4Point struct {
	Input   string
	Threads int
	Seconds float64
	Speedup float64
}

// Figure4 reproduces Giraffe's strong scaling of the extension (Fig. 4):
// the serial mapping time is measured locally, and the thread sweep is
// projected through the local-intel model (the machine the paper used),
// since this host cannot scale natively. Large inputs keep scaling to 48
// threads; the small A-human plateaus.
func (s *Suite) Figure4(threadSweep []int) ([]Figure4Point, error) {
	if len(threadSweep) == 0 {
		threadSweep = []int{1, 2, 4, 8, 16, 24, 32, 40, 48}
	}
	m := machine.LocalIntel
	var out []Figure4Point
	s.section("Figure 4: Giraffe extension strong scaling (local-intel model)")
	for _, spec := range workload.AllSpecs() {
		b, err := s.Bundle(spec)
		if err != nil {
			return nil, err
		}
		ix, err := s.Indexes(spec)
		if err != nil {
			return nil, err
		}
		res, err := giraffe.Map(ix, b.Reads, giraffe.Options{Threads: 1})
		if err != nil {
			return nil, err
		}
		serial := secs(res.Makespan)
		w := machine.Workload{
			SerialRefSec: serial,
			Reads:        len(b.Reads),
			WorkingSetMB: b.WorkingSetMB(256, 1),
			MemGB:        1, // scaled data always fits
		}
		base, err := m.SimTime(w, 1)
		if err != nil {
			return nil, err
		}
		s.printf("%-8s serial(local)=%.2fs:", spec.Name, serial)
		for _, th := range threadSweep {
			t, err := m.SimTime(w, th)
			if err != nil {
				return nil, err
			}
			p := Figure4Point{Input: spec.Name, Threads: th, Seconds: t, Speedup: base / t}
			out = append(out, p)
			s.printf(" %d:%.1fx", th, p.Speedup)
		}
		s.printf("\n")
	}
	return out, nil
}

// Table4 reproduces the VTune top-down split for A-human via the counter
// model (paper: FE 23.5, BE 22.8, BadSpec 10.2, Retiring 43.4).
func (s *Suite) Table4() (counters.TopDown, error) {
	b, err := s.Bundle(workload.AHuman())
	if err != nil {
		return counters.TopDown{}, err
	}
	ix, err := s.Indexes(workload.AHuman())
	if err != nil {
		return counters.TopDown{}, err
	}
	h := counters.NewDefaultHierarchy()
	if _, err := giraffe.Map(ix, b.Reads, giraffe.Options{Threads: 1, Probe: h}); err != nil {
		return counters.TopDown{}, err
	}
	c := h.Snapshot(counters.DefaultCycleModel)
	td := c.TopDownSplit(counters.DefaultCycleModel)
	s.section("Table IV: top-down microarchitecture split (A-human, modelled)")
	s.printf("front-end=%.1f%% (latency portion modelled) back-end=%.1f%% (memory %.1f%%) bad-spec=%.1f%% retiring=%.1f%%\n",
		td.FrontEnd*100, td.BackEnd*100, td.BackEndMemory*100, td.BadSpec*100, td.Retiring*100)
	s.printf("paper:     front-end=23.5%% back-end=22.8%% (memory 15.6%%) bad-spec=10.2%% retiring=43.4%%\n")
	return td, nil
}
