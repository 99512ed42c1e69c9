// Command bench is the repository's benchmark: one command that generates
// its inputs from a seed, runs four named workloads, checks every output
// against a reference pass of the same commit, and prints every metric by
// name and unit. BENCHMARK.json at the repository root describes it;
// README.md in this directory holds the metric tables and the noise-floor
// calibration.
//
// Usage:
//
//	go run ./cmd/bench > a.json                # all four workloads, both tiers
//	go run ./cmd/bench -workload serve_http    # a subset (comma-separated)
//	go run ./cmd/bench -workload batch_kernels -seed 7 -seconds 10 -trace 0
//	                                           # one tier of one workload
//	go run ./cmd/bench -compare a.json b.json  # verdict per workload × end-to-end metric
//
// Standard output carries the JSON document of the run and then, per
// workload, its one-line result object; the text table goes to standard
// error. Every workload runs in a child process of its own (GOMAXPROCS=T,
// GOGC=100, T = min(nproc, 4)) that only ever sees the .gbz / .fq /
// -seeds.bin files generated from the seed. Layers are measured from outside
// through their exported functions; nothing outside this directory is touched.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workloads := flag.String("workload", strings.Join(workloadNames(), ","), "comma-separated workloads to run")
	seed := flag.Int64("seed", defaultSeed, "workload seed: draws each workload's reads from its generated pool, the request mix and the arrival schedule")
	seconds := flag.Float64("seconds", 10, "timed seconds per workload and tier")
	trace := flag.Int("trace", -1, "0: only the end-to-end tier (tracing off); 1: only the traced per-layer tier; default both")
	quick := flag.Bool("quick", false, "smoke mode: inputs a tenth the size, one timed second per run")
	workdir := flag.String("workdir", ".bench_work", "scratch directory for generated inputs, the giraffed binary and trace-<workload>.json")
	compare := flag.Bool("compare", false, "compare the documents of two runs: bench -compare a.json b.json")
	child := flag.String("child", "", "internal: run the job described by this JSON file in this process")
	flag.Parse()

	switch {
	case *child != "":
		if err := childMain(*child); err != nil {
			log.Fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two JSON documents: bench -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	default:
		tiers := []string{tierEndToEnd, tierPerLayer}
		if *trace == 0 || *trace == 1 {
			tiers = tiers[*trace : *trace+1]
		}
		o := orchestrator{workdir: *workdir, seed: *seed, seconds: *seconds, quick: *quick}
		if err := o.runAll(strings.Split(*workloads, ","), tiers); err != nil {
			log.Fatal(err)
		}
	}
}

// resultLine is the one-line result object of one workload's run, with
// exactly the keys the benchmark contract names.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders r as its result object: every metric BENCHMARK.json lists
// for the tiers that ran.
func (r *Result) line(tiers []string) (resultLine, error) {
	line := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for _, def := range catalogue {
		if !def.listed || !slices.Contains(tiers, def.tier) {
			continue
		}
		m, ok := r.Metrics[def.name]
		if !ok {
			return line, fmt.Errorf("%s: metric %s missing from the run", r.Workload, def.name)
		}
		line.Metrics[def.name] = lineMetric{Value: m.Value, Unit: def.unit}
	}
	return line, nil
}

// runAll runs the named workloads, each through the given tiers, and prints
// the run: the table to standard error; to standard output the JSON document
// and then each workload's result object on a line of its own, so that a run
// of one workload ends with that workload's object. A failed output check is
// printed like any result (correct=false) and makes the run an error.
func (o orchestrator) runAll(names, tiers []string) error {
	doc := Document{Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Threads: benchThreads()}
	var lines []resultLine
	var failed []string
	for _, name := range names {
		results, err := o.run(name, tiers)
		if err != nil {
			return err
		}
		res := merge(results)
		printTable(os.Stderr, res)
		line, err := res.line(tiers)
		if err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, res)
		lines = append(lines, line)
		if res.Failed != 0 {
			failed = append(failed, fmt.Sprintf("%s (%d of %d: %s)", name, res.Failed, res.Attempted, res.FailNote))
		}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	for _, line := range lines {
		if b, err = json.Marshal(line); err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if len(failed) > 0 {
		return errors.New("output check failed on " + strings.Join(failed, ", "))
	}
	return nil
}
