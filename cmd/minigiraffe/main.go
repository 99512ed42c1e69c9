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
// reads on the fly with bounded lookahead — the paper's capture→proxy loop
// as a single process. -fastq implies -stream.
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
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// progressInterval is the debug endpoint's /progress sampling cadence.
const progressInterval = time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("minigiraffe: ")
	gbzPath := flag.String("gbz", "", "pangenome .gbz file (required)")
	seedsPath := flag.String("seeds", "", "captured sequence-seeds .bin file (this or -fastq required)")
	fastqPath := flag.String("fastq", "", "stream directly from these FASTQ reads, extracting seeds on the fly (implies -stream)")
	threads := flag.Int("threads", 0, "worker threads (0 = all CPUs)")
	batch := flag.Int("batch", 512, "batch size")
	capacity := flag.Int("capacity", 256, "initial CachedGBWT capacity (-1 disables caching); with -epoch, sizes the per-worker overflow layer")
	epoch := flag.Int("epoch", 0, "epoch-published shared cache capacity per GBWT direction (0 = per-batch rebuilds, the paper's discipline)")
	schedName := flag.String("sched", "dynamic", "scheduler: dynamic, work-stealing, static")
	stream := flag.Bool("stream", false, "stream records through the pipeline (bounded memory)")
	depth := flag.Int("depth", 0, "stream mode: max in-flight batches (0 = 2x threads)")
	lookahead := flag.Int("lookahead", 0, "fastq mode: extraction prefetch bound in records (0 = 512)")
	out := flag.String("out", "", "extension CSV output (default stdout)")
	timeline := flag.String("timeline", "", "write the region timeline CSV here")
	perfetto := flag.String("perfetto", "", "write a Perfetto/chrome://tracing trace-event JSON here")
	manifest := flag.String("manifest", "", "run manifest JSON path (default <out>.manifest.json when -out is set; \"off\" disables)")
	obsOn := flag.Bool("obs", false, "enable the metrics registry (kernel/stage histograms, scheduler counters) even without -debug-addr")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar, /metrics, /progress and /slow on this address (e.g. localhost:6060); enables the metrics registry")
	seriesPath := flag.String("series", "", "archive a delta-encoded metric time-series here (flight recorder; enables the metrics registry)")
	seriesEvery := flag.Duration("series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	slowK := flag.Int("slow", 0, "retain the K slowest reads as exemplars (served at /slow, archived in the manifest)")
	profileDir := flag.String("profile", "", "continuous profiling: rotate labeled CPU/heap profile segments into this directory")
	flag.Parse()
	if *gbzPath == "" || (*seedsPath == "") == (*fastqPath == "") {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		log.Fatal(err)
	}

	var profiles *obs.ProfileRecorder
	if *profileDir != "" {
		var err error
		profiles, err = obs.StartProfiles(*profileDir, obs.DefaultProfileInterval)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Observability is default-off: the registry exists only when asked for,
	// and a nil registry keeps every instrumented path timing-free.
	workers := *threads
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var reg *obs.Registry
	if *obsOn || *debugAddr != "" || *seriesPath != "" {
		// +2: the pipeline's ingest and emit stages record into their own
		// shards past the map workers.
		reg = obs.NewRegistry(workers + 2)
	}
	// The slow-read reservoir is independent of the registry: -slow alone
	// captures exemplars into the manifest with zero registry overhead.
	var slow *obs.SlowReads
	if *slowK > 0 {
		slow = obs.NewSlowReads(workers, *slowK)
	}
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		var err error
		dbg, err = obs.StartDebugServer(*debugAddr, reg, slow, progressInterval)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/\n", dbg.Addr())
	}
	var series *obs.SeriesRecorder
	if *seriesPath != "" {
		var err error
		series, err = obs.StartSeries(reg, slow, nil, *seriesPath, *seriesEvery, 0)
		if err != nil {
			log.Fatal(err)
		}
	}
	man := obs.NewManifest("minigiraffe")
	man.AddFlagSet(flag.CommandLine)
	manifestPath := *manifest
	if manifestPath == "" && *out != "" {
		manifestPath = *out + ".manifest.json"
	}
	if manifestPath == "off" {
		manifestPath = ""
	}

	f, err := gbz.Load(*gbzPath)
	if err != nil {
		log.Fatal(err)
	}
	var rec *trace.Recorder
	if *timeline != "" || *perfetto != "" {
		rec = trace.NewRecorder(workers)
	}

	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer file.Close()
		w = file
	}

	opts := core.Options{
		Threads:       *threads,
		BatchSize:     *batch,
		CacheCapacity: *capacity,
		EpochCapacity: *epoch,
		Scheduler:     kind,
		Trace:         rec,
		Obs:           reg,
		Slow:          slow,
	}
	switch {
	case *fastqPath != "":
		runStreamFromFASTQ(f, *fastqPath, w, opts, *depth, *lookahead)
	case *stream:
		runStream(f, *seedsPath, w, opts, *depth)
	default:
		runBatch(f, *seedsPath, w, opts)
	}

	if series != nil {
		// Stop before the manifest so the archive's final sample reflects the
		// whole run; a failed flight recorder fails the run loudly.
		if err := series.Stop(); err != nil {
			log.Fatal(err)
		}
	}
	if profiles != nil {
		// Same discipline as the series: a capture that failed mid-run fails
		// the run, instead of committing a silently truncated profile.
		if err := profiles.Stop(); err != nil {
			log.Fatal(err)
		}
	}

	if rec != nil && *timeline != "" {
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
	if manifestPath != "" {
		// Workload hashing happens after the run so it never competes with
		// mapping for I/O bandwidth.
		if err := man.AddWorkload("gbz", *gbzPath); err != nil {
			log.Fatal(err)
		}
		input, label := *seedsPath, "seeds"
		if *fastqPath != "" {
			input, label = *fastqPath, "fastq"
		}
		if err := man.AddWorkload(label, input); err != nil {
			log.Fatal(err)
		}
		for _, p := range []string{*out, *timeline, *perfetto, *seriesPath} {
			if p != "" {
				man.AddResult(p)
			}
		}
		if *seriesPath != "" {
			// obsdiff resolves the archive by basename next to the manifest.
			man.Notes["series"] = filepath.Base(*seriesPath)
		}
		if *profileDir != "" {
			man.Notes["profiles"] = filepath.Base(*profileDir)
		}
		man.AddSlowReads(slow)
		man.Finish(reg)
		if err := man.Write(manifestPath); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "run manifest written to %s\n", manifestPath)
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
func runStreamFromFASTQ(f *gbz.File, fastqPath string, w *os.File, opts core.Options, depth, lookahead int) {
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		log.Fatal(err)
	}
	// Reuse the emulator's indexes instead of rebuilding them for the proxy.
	m, err := core.NewMapperFromIndexes(f, ix.Dist, ix.Bi, opts)
	if err != nil {
		log.Fatal(err)
	}
	src, err := giraffe.OpenExtractSourceObs(ix.MinIx, fastqPath, lookahead, opts.Obs)
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
