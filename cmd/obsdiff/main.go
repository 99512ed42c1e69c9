// Command obsdiff is the pairwise reader of the flight-recorder archive: it
// loads two recorded runs (run manifest plus the optional archived metric
// series) — batch or serving, made on the same machine — aligns them by
// metric name, and reports throughput and tail-latency deltas per stage and
// kernel as a markdown report. The exit status is the verdict. The repo's
// perf gate is `make perfdiff` (cmd/bench -compare), not this command.
//
// Usage:
//
//	obsdiff -baseline run-a -candidate run-b -report diff.md
//
// Exit status: 0 = within thresholds, 1 = regression, 2 = usage or load
// error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obsdiff: ")
	baseline := flag.String("baseline", "", "baseline run: manifest file or directory containing one (required)")
	candidate := flag.String("candidate", "", "candidate run: manifest file or directory containing one (required)")
	report := flag.String("report", "", "write the markdown report here (default stdout)")
	reportOnly := flag.Bool("report-only", false, "always exit 0: report regressions without failing")
	p99Rise := flag.Float64("p99-threshold", 0, "fractional p99 rise that fails (default 0.25 = +25%)")
	thrDrop := flag.Float64("throughput-threshold", 0, "fractional reads/s drop that fails (default 0.15 = -15%)")
	minCount := flag.Int64("min-count", 0, "ignore histograms with fewer observations in either run (default 100)")
	minP99 := flag.Float64("min-p99", 0, "ignore candidate p99s below this many seconds (default 1e-4)")
	flag.Parse()
	if *baseline == "" || *candidate == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := obs.LoadRun(*baseline)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	cand, err := obs.LoadRun(*candidate)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	r := obs.Diff(base, cand, obs.DiffOptions{
		P99Rise:        *p99Rise,
		ThroughputDrop: *thrDrop,
		MinCount:       *minCount,
		MinP99Seconds:  *minP99,
	})

	w := os.Stdout
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if err := r.WriteMarkdown(w); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if r.Regressed() {
		fmt.Fprintln(os.Stderr, "obsdiff: REGRESSED (see report)")
		if !*reportOnly {
			os.Exit(1)
		}
	}
}
