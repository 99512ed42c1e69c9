// Command scalability reproduces the scaling experiments: the parent's
// strong scaling of the extension (Figure 4), the proxy's scalability on
// the four modelled systems (Figure 5), and the fastest-time table
// (Table VII).
//
// Usage:
//
//	scalability -scale 1.0 -threads 4             # Figures 4 and 5, Table VII
//	scalability -experiment figure4               # one experiment only
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalability: ")
	cfg := obs.StackConfig{Tool: "scalability", Flags: flag.CommandLine}
	scale := flag.Float64("scale", 1.0, "read-count scale factor")
	flag.IntVar(&cfg.Threads, "threads", 0, "local measurement threads (0 = all CPUs)")
	repeats := flag.Int("repeats", 1, "repeats per measured point")
	experiment := flag.String("experiment", "all", "figure4, figure5, table7, or all")
	flag.StringVar(&cfg.Manifest, "manifest", "scalability-manifest.json", "run manifest JSON path (\"off\" disables)")
	flag.StringVar(&cfg.Series, "series", "", "archive a JSON-lines metric time-series here (flight recorder; enables the metrics registry)")
	flag.DurationVar(&cfg.SeriesInterval, "series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	flag.Parse()

	stack, err := obs.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := experiments.NewSuite(experiments.Config{
		Scale: *scale, Threads: cfg.Threads, Repeats: *repeats, Out: os.Stdout, Obs: stack.Reg,
	})
	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		stack.Note("ran_"+name, "true")
	}
	run("figure4", func() error { _, err := s.Figure4(nil); return err })
	run("figure5", func() error { _, err := s.Figure5(); return err })
	run("table7", func() error { _, err := s.Table7(); return err })
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}
}
