// Command benchreport regenerates every table and figure of the paper's
// evaluation in one run: Tables I, IV, V, VI, VII, VIII and Figures 2-8,
// plus the §VI-a functional validation, the §VII-B ANOVA, and the streaming
// ingest comparison (batch vs capture-file vs fastq-stream makespans). Raw
// CSV artefacts (timeline, heat map) are written to -outdir.
//
// Usage:
//
//	benchreport -scale 1.0 -outdir results/
//	benchreport -only figure4,figure5,table7   # the scaling experiments
//	benchreport -only figure6,figure7,figure8  # the §VII-B autotuning study (Table VIII, ANOVA)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	cfg := obs.StackConfig{Tool: "benchreport", Flags: flag.CommandLine}
	scale := flag.Float64("scale", 1.0, "read-count scale factor")
	flag.IntVar(&cfg.Threads, "threads", 0, "local measurement threads (0 = all CPUs)")
	repeats := flag.Int("repeats", 1, "repeats per measured point")
	outdir := flag.String("outdir", "results", "directory for CSV artefacts")
	only := flag.String("only", "", "comma-separated steps to run, e.g. figure5,table7 (default: all; an unknown name lists the valid ones)")
	flag.StringVar(&cfg.Manifest, "manifest", "", "run manifest JSON path (default <outdir>/run-manifest.json; \"off\" disables)")
	flag.StringVar(&cfg.Series, "series", "", "archive a JSON-lines metric time-series here (flight recorder; enables the metrics registry)")
	flag.DurationVar(&cfg.SeriesInterval, "series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	flag.StringVar(&cfg.Profile, "profile", "", "continuous profiling: rotate labeled CPU/heap profile segments into this directory")
	flag.Parse()

	var s *experiments.Suite // built once the obs stack is up; the steps close over it
	space := autotune.DefaultSpace()

	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"table1", func() error { _, err := s.Table1(""); return err }},
		{"validation", func() error { _, err := s.FunctionalValidationAll(); return err }},
		{"streaming", func() error { _, err := s.StreamingComparison(); return err }},
		{"figure2", func() error {
			f, err := os.Create(filepath.Join(*outdir, "figure2-timeline.csv"))
			if err != nil {
				return err
			}
			defer f.Close()
			rec, err := s.Figure2(f)
			if err != nil {
				return err
			}
			svg, err := os.Create(filepath.Join(*outdir, "figure2.svg"))
			if err != nil {
				return err
			}
			defer svg.Close()
			return plot.WriteTimelineSVG(svg, rec, "Figure 2: Giraffe 16-thread timeline (A-human)")
		}},
		{"figure3", func() error { _, err := s.Figure3(); return err }},
		{"figure4", func() error { _, err := s.Figure4(nil); return err }},
		{"table4", func() error { _, err := s.Table4(); return err }},
		{"table5", func() error { _, err := s.Table5(); return err }},
		{"table6", func() error { _, err := s.Table6(); return err }},
		{"figure5", func() error {
			points, err := s.Figure5()
			if err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*outdir, "figure5.svg"))
			if err != nil {
				return err
			}
			defer f.Close()
			return experiments.Figure5SVG(points, "B-yeast", f)
		}},
		{"table7", func() error { _, err := s.Table7(); return err }},
		{"figure6", func() error {
			points, err := s.Figure6()
			if err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*outdir, "figure6.svg"))
			if err != nil {
				return err
			}
			defer f.Close()
			return experiments.Figure6SVG(points, f)
		}},
		{"figure7", func() error {
			cells, err := s.Figure7AndTable8(space)
			if err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*outdir, "figure7.svg"))
			if err != nil {
				return err
			}
			defer f.Close()
			return experiments.Figure7SVG(cells, f)
		}},
		{"figure8", func() error {
			f, err := os.Create(filepath.Join(*outdir, "figure8-heatmap.csv"))
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = s.Figure8(space, f)
			return err
		}},
	}
	names := make([]string, len(steps))
	for i, st := range steps {
		names[i] = st.name
	}
	selected, err := parseOnly(*only, names)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	if cfg.Manifest == "" {
		cfg.Manifest = filepath.Join(*outdir, "run-manifest.json")
	}
	stack, err := obs.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s = experiments.NewSuite(experiments.Config{
		Scale: *scale, Threads: cfg.Threads, Repeats: *repeats, Out: os.Stdout, Obs: stack.Reg,
	})
	start := time.Now()
	for _, st := range steps {
		if !selected[st.name] {
			continue
		}
		t0 := time.Now()
		if err := st.fn(); err != nil {
			log.Fatalf("%s: %v", st.name, err)
		}
		elapsed := time.Since(t0).Round(time.Millisecond)
		stack.Note("step_"+st.name, elapsed.String())
		fmt.Printf("[%s done in %v]\n", st.name, elapsed)
	}
	entries, err := os.ReadDir(*outdir)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && e.Name() != filepath.Base(cfg.Manifest) {
			stack.AddResult(filepath.Join(*outdir, e.Name()))
		}
	}
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbenchreport complete in %v; CSV artefacts in %s/\n",
		time.Since(start).Round(time.Millisecond), *outdir)
}

// parseOnly turns the -only list into the set of steps to run: all of valid
// when it is empty, and an error naming them when it holds one that does not
// exist — a typo must not read as a run with nothing to do.
func parseOnly(only string, valid []string) (map[string]bool, error) {
	selected := make(map[string]bool)
	if only == "" {
		only = strings.Join(valid, ",")
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown step %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		selected[name] = true
	}
	return selected, nil
}
