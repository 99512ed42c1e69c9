// Command autotune reproduces the §VII-B autotuning case study: the
// CachedGBWT capacity sweep (Figure 6), the exhaustive tuning cross-product
// with best-vs-default comparison (Figure 7) and winning parameters
// (Table VIII), the D-HPRC-on-chi-intel heat map (Figure 8), and the
// per-factor ANOVA.
//
// Usage:
//
//	autotune -scale 1.0                     # the full study
//	autotune -experiment figure6            # one experiment
//	autotune -experiment figure8 -heatmap heatmap.csv
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/autotune"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autotune: ")
	cfg := obs.StackConfig{Tool: "autotune", Flags: flag.CommandLine}
	scale := flag.Float64("scale", 1.0, "read-count scale factor")
	flag.IntVar(&cfg.Threads, "threads", 0, "local measurement threads (0 = all CPUs)")
	repeats := flag.Int("repeats", 1, "repeats per combo")
	experiment := flag.String("experiment", "all", "figure6, figure7, figure8, or all")
	heatmap := flag.String("heatmap", "", "write the Figure 8 heat map CSV here")
	flag.StringVar(&cfg.Manifest, "manifest", "autotune-manifest.json", "run manifest JSON path (\"off\" disables)")
	flag.Parse()

	stack, err := obs.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := experiments.NewSuite(experiments.Config{
		Scale: *scale, Threads: cfg.Threads, Repeats: *repeats, Out: os.Stdout,
	})
	space := autotune.DefaultSpace()
	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		stack.Note("ran_"+name, "true")
	}
	run("figure6", func() error { _, err := s.Figure6(); return err })
	run("figure7", func() error { _, err := s.Figure7AndTable8(space); return err })
	run("figure8", func() error {
		if *heatmap == "" {
			_, err := s.Figure8(space, nil)
			return err
		}
		file, err := os.Create(*heatmap)
		if err != nil {
			return err
		}
		if _, err := s.Figure8(space, file); err != nil {
			file.Close()
			return err
		}
		// A failed close is a truncated heat map: it fails the run.
		return file.Close()
	})
	if *heatmap != "" {
		stack.AddResult(*heatmap)
	}
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}
}
