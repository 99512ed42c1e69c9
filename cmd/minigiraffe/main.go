// Command minigiraffe is the proxy application: it loads the pangenome
// reference from a .gbz file and the captured reads+seeds from a
// sequence-seeds.bin, runs the two critical functions under the selected
// scheduler, and writes the raw mapping output as CSV — miniGiraffe's
// command-line contract (§V of the paper), with the three tuning parameters
// (-sched, -batch, -capacity) exposed.
//
// With -stream, records flow through the streaming pipeline instead of the
// batch scheduler: ingest, mapping, and emit overlap over bounded channels,
// so memory stays proportional to the in-flight window (-depth batches)
// rather than the workload, while the CSV output stays byte-identical to
// batch mode.
//
// With -fastq (instead of -seeds), the proxy needs no captured-seed file at
// all: the giraffe emulator's preprocessing runs inline as the pipeline's
// ingest stage (giraffe.ExtractSource), extracting seeds from the FASTQ
// reads a batch at a time — the paper's capture→proxy loop as a single
// process. -fastq implies -stream.
//
// Usage:
//
//	minigiraffe -gbz A-human.gbz -seeds A-human-seeds.bin \
//	    -threads 16 -batch 512 -capacity 256 -sched dynamic -out out.csv
//	minigiraffe -gbz A-human.gbz -fastq A-human.fq -out out.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("minigiraffe: ")
	// Observability is default-off (DESIGN "Observability lifecycle"): a flag
	// left unset leaves its sink nil, and nil sinks keep every instrumented
	// path timing-free.
	cfg := obs.StackConfig{Tool: "minigiraffe", Flags: flag.CommandLine}
	gbzPath := flag.String("gbz", "", "pangenome .gbz file (required)")
	seedsPath := flag.String("seeds", "", "captured sequence-seeds .bin file (this or -fastq required)")
	fastqPath := flag.String("fastq", "", "stream directly from these FASTQ reads, extracting seeds on the fly (implies -stream)")
	flag.IntVar(&cfg.Threads, "threads", 0, "worker threads (0 = all CPUs)")
	batch := flag.Int("batch", 512, "batch size")
	capacity := flag.Int("capacity", 256, "initial CachedGBWT capacity (-1 disables caching); with -epoch, sizes the per-worker overflow layer")
	epoch := flag.Int("epoch", 0, "epoch-published shared cache capacity per GBWT direction (0 = per-batch rebuilds, the paper's discipline)")
	schedName := flag.String("sched", "dynamic", "scheduler: dynamic, work-stealing, static")
	stream := flag.Bool("stream", false, "stream records through the pipeline (bounded memory)")
	depth := flag.Int("depth", 0, "stream mode: max in-flight batches (0 = 2x threads)")
	out := flag.String("out", "", "extension CSV output (default stdout)")
	timeline := flag.String("timeline", "", "write the region timeline CSV here")
	perfetto := flag.String("perfetto", "", "write a Perfetto/chrome://tracing trace-event JSON here")
	flag.StringVar(&cfg.Manifest, "manifest", "", "run manifest JSON path (default <out>.manifest.json when -out is set; \"off\" disables)")
	flag.BoolVar(&cfg.Obs, "obs", false, "enable the metrics registry (kernel/stage histograms, scheduler counters) even without -debug-addr")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve pprof, expvar, /metrics, /progress and /slow on this address (e.g. localhost:6060); enables the metrics registry")
	flag.StringVar(&cfg.Series, "series", "", "archive a JSON-lines metric time-series here (flight recorder; enables the metrics registry)")
	flag.DurationVar(&cfg.SeriesInterval, "series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	flag.IntVar(&cfg.Slow, "slow", 0, "retain the K slowest reads as exemplars (served at /slow, archived in the manifest)")
	flag.StringVar(&cfg.Profile, "profile", "", "continuous profiling: rotate labeled CPU/heap profile segments into this directory")
	flag.Parse()
	if *gbzPath == "" || (*seedsPath == "") == (*fastqPath == "") {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Manifest == "" && *out != "" {
		cfg.Manifest = *out + ".manifest.json"
	}
	stack, err := obs.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}

	f, err := gbz.Load(*gbzPath)
	if err != nil {
		log.Fatal(err)
	}
	var rec *trace.Recorder
	if *timeline != "" || *perfetto != "" {
		rec = trace.NewRecorder(stack.Workers)
	}

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
	}

	opts := core.Options{
		Threads:       cfg.Threads,
		BatchSize:     *batch,
		CacheCapacity: *capacity,
		EpochCapacity: *epoch,
		Scheduler:     kind,
		Trace:         rec,
		Obs:           stack.Reg,
		Slow:          stack.Slow,
	}
	switch {
	case *fastqPath != "":
		runStreamFromFASTQ(f, *fastqPath, w, opts, *depth)
	case *stream:
		runStream(f, *seedsPath, w, opts, *depth)
	default:
		runBatch(f, *seedsPath, w, opts)
	}
	if *out != "" {
		// A failed close is a truncated CSV: it fails the run before the
		// manifest can vouch for the file.
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if *timeline != "" {
		file, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteTimelineCSV(file); err != nil {
			log.Fatal(err)
		}
		if err := file.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *perfetto != "" {
		file, err := os.Create(*perfetto)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WritePerfettoTrace(file, rec); err != nil {
			log.Fatal(err)
		}
		if err := file.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// Workload hashing happens after the run so it never competes with
	// mapping for I/O bandwidth.
	if err := stack.AddWorkload("gbz", *gbzPath); err != nil {
		log.Fatal(err)
	}
	input, label := *seedsPath, "seeds"
	if *fastqPath != "" {
		input, label = *fastqPath, "fastq"
	}
	if err := stack.AddWorkload(label, input); err != nil {
		log.Fatal(err)
	}
	for _, p := range []string{*out, *timeline, *perfetto} {
		if p != "" {
			stack.AddResult(p)
		}
	}
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}
}

// runBatch is the paper's batch proxy: materialize the workload, map it all
// at once, write the CSV.
func runBatch(f *gbz.File, seedsPath string, w *os.File, opts core.Options) {
	recs, err := seeds.ReadFile(seedsPath)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(f, recs, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.WriteCSV(w, recs, res); err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, exts := range res.Extensions {
		total += len(exts)
	}
	fmt.Fprintf(os.Stderr,
		"makespan %v: %d reads, %d extensions, scheduler %s, cache hits %d/%d (%.1f%%, %d shared), %d rehashes, imbalance %.2f\n",
		res.Makespan, len(recs), total, opts.Scheduler,
		res.Cache.TotalHits(), res.Cache.Accesses,
		100*float64(res.Cache.TotalHits())/float64(max64(res.Cache.Accesses, 1)),
		res.Cache.SharedHits, res.Cache.Rehashes, res.Sched.Imbalance())
}

// runStream maps the capture file through the streaming pipeline without
// ever materializing it.
func runStream(f *gbz.File, seedsPath string, w *os.File, opts core.Options, depth int) {
	m, err := core.NewMapper(f, opts)
	if err != nil {
		log.Fatal(err)
	}
	src, err := seeds.Open(seedsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	runPipeline(m, src, w, opts, depth)
}

// runStreamFromFASTQ completes the capture→proxy loop in one process: the
// emulator's preprocessing feeds the pipeline directly from FASTQ, with no
// captured-seed file on disk.
func runStreamFromFASTQ(f *gbz.File, fastqPath string, w *os.File, opts core.Options, depth int) {
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		log.Fatal(err)
	}
	// Reuse the emulator's indexes instead of rebuilding them for the proxy.
	m, err := core.NewMapperFromIndexes(f, ix.Dist, ix.Bi, opts)
	if err != nil {
		log.Fatal(err)
	}
	src, err := giraffe.OpenExtractSourceObs(ix.MinIx, fastqPath, opts.Obs)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	runPipeline(m, src, w, opts, depth)
}

func runPipeline(m *core.Mapper, src pipeline.Source, w *os.File, opts core.Options, depth int) {
	st, err := pipeline.RunToCSV(m, src, w, pipeline.Options{
		Workers:   opts.Threads,
		BatchSize: opts.BatchSize,
		Depth:     depth,
		Scheduler: opts.Scheduler,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"streamed %d reads in %d batches in %v (%.0f reads/s), scheduler %s, cache hits %d/%d (%.1f%%, %d shared), %d rehashes, %d steals, imbalance %.2f, batch latency mean %.2fms max %.2fms, ingest mean %.2fms\n",
		st.Reads, st.Batches, st.Makespan, st.Throughput(), opts.Scheduler,
		st.Cache.TotalHits(), st.Cache.Accesses,
		100*float64(st.Cache.TotalHits())/float64(max64(st.Cache.Accesses, 1)),
		st.Cache.SharedHits, st.Cache.Rehashes, st.Sched.Steals, st.Sched.Imbalance(),
		1000*st.BatchLatency.Mean, 1000*st.BatchLatency.Max, 1000*st.IngestLatency.Mean)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
