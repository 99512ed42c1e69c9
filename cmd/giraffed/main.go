// Command giraffed is mapping-as-a-service: a long-lived HTTP/JSON server
// that loads the pangenome substrate (graph, GBWT, minimizer and distance
// indexes) once and then maps read batches submitted by many concurrent
// clients through a persistent pipeline.Session worker pool.
//
// Request-scoped policies (package serve): per-client in-flight caps and a
// bounded shared mapping queue answer overload with 429 + Retry-After;
// per-request deadlines (X-Deadline-Ms, clamped to -max-deadline) cancel
// queued and in-flight mapping and surface as 504; SIGTERM/SIGINT drains
// gracefully — /healthz flips to 503, accepted requests finish, the run
// manifest is written, and the process exits 0.
//
// Endpoints: POST /map, GET /healthz, /stats, /metrics (Prometheus),
// /slow (slowest-read exemplars), /traces (tail-sampled request traces:
// every non-2xx request plus the top-K slowest 2xx, as admit / queue_wait /
// map_subbatch / emit span trees). The usual observability flags (-series,
// -slow, -manifest, -debug-addr) behave as in minigiraffe, so cmd/obsdiff
// can diff serving runs against each other.
//
// Usage:
//
//	giraffed -gbz A-human.gbz -addr localhost:8765 -threads 8 \
//	    -depth 32 -per-client 4 -default-deadline 10s
//	curl -s localhost:8765/map -d '{"reads":[{"name":"r1","seq":"ACGT..."}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/serve"
)

const (
	// progressInterval is the debug endpoint's /progress sampling cadence.
	progressInterval = time.Second
	// traceErrCap is the per-shard retention cap for non-2xx request traces.
	traceErrCap = 256
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("giraffed: ")
	gbzPath := flag.String("gbz", "", "pangenome .gbz file (required)")
	addr := flag.String("addr", "localhost:8765", "serve address")
	threads := flag.Int("threads", 0, "map-worker threads (0 = all CPUs)")
	batch := flag.Int("batch", 512, "sub-batch size a request is split into (per-batch CachedGBWT lifetime)")
	capacity := flag.Int("capacity", 256, "initial CachedGBWT capacity (-1 disables caching); with -epoch, sizes the per-worker overflow layer")
	epoch := flag.Int("epoch", 0, "epoch-published shared cache capacity per GBWT direction (0 = per-batch rebuilds)")
	schedName := flag.String("sched", "dynamic", "scheduler: dynamic, work-stealing, static")
	depth := flag.Int("depth", 0, "mapping queue bound in sub-batches (admission control; 0 = 2x threads)")
	perClient := flag.Int("per-client", 4, "max in-flight requests per client")
	maxReads := flag.Int("max-reads", 4096, "max reads per request")
	defaultDeadline := flag.Duration("default-deadline", 10*time.Second, "request deadline when the client sends none")
	maxDeadline := flag.Duration("max-deadline", time.Minute, "upper clamp on client deadlines")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After advertised on 429/503")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	manifest := flag.String("manifest", "", "write the run manifest JSON here on shutdown")
	seriesPath := flag.String("series", "", "archive a delta-encoded metric time-series here (flight recorder)")
	seriesEvery := flag.Duration("series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	slowK := flag.Int("slow", 0, "retain the K slowest reads as exemplars (served at /slow, archived in the manifest)")
	traceK := flag.Int("trace-k", 32, "tail-sample the K slowest 2xx requests per worker shard (0 disables request tracing)")
	reqTracePath := flag.String("req-traces", "", "write sampled request traces as a Perfetto/Chrome trace file here on shutdown")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar/progress on this extra address")
	profileDir := flag.String("profile", "", "continuous profiling: rotate labeled CPU/heap profile segments into this directory")
	flag.Parse()
	if *gbzPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		log.Fatal(err)
	}

	workers := *threads
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Serving always runs with the registry on: request metrics are the
	// service's contract, not an optional extra. +2 shards: the submit path
	// records past the map workers, HTTP handlers round-robin.
	reg := obs.NewRegistry(workers + 2)
	var slow *obs.SlowReads
	if *slowK > 0 {
		slow = obs.NewSlowReads(workers, *slowK)
	}
	var tracer *obs.ReqTracer
	if *traceK > 0 {
		tracer = obs.NewReqTracer(workers, *traceK, traceErrCap, reg)
	}
	man := obs.NewManifest("giraffed")
	man.AddFlagSet(flag.CommandLine)

	log.Printf("loading substrate from %s", *gbzPath)
	t0 := time.Now()
	f, err := gbz.Load(*gbzPath)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		log.Fatal(err)
	}
	m, err := core.NewMapperFromIndexes(f, ix.Dist, ix.Bi, core.Options{
		Threads:       workers,
		BatchSize:     *batch,
		CacheCapacity: *capacity,
		EpochCapacity: *epoch,
		Scheduler:     kind,
		Obs:           reg,
		Slow:          slow,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("substrate ready in %v: %d nodes, %d paths", time.Since(t0),
		f.Graph.NumNodes(), f.Graph.NumPaths())

	sess, err := pipeline.NewSession(m, pipeline.Options{
		Workers:   workers,
		BatchSize: *batch,
		Depth:     *depth,
		Scheduler: kind,
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Session:         sess,
		Extract:         func(read *dna.Read) (seeds.ReadSeeds, error) { return giraffe.Preprocess(ix.MinIx, read) },
		Reg:             reg,
		Slow:            slow,
		Traces:          tracer,
		PerClient:       *perClient,
		MaxReads:        *maxReads,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
	})
	if err != nil {
		log.Fatal(err)
	}

	var series *obs.SeriesRecorder
	if *seriesPath != "" {
		series, err = obs.StartSeries(reg, slow, tracer, *seriesPath, *seriesEvery, 0)
		if err != nil {
			log.Fatal(err)
		}
	}
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		dbg, err = obs.StartDebugServer(*debugAddr, reg, slow, progressInterval)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoint on http://%s/", dbg.Addr())
	}
	var profiles *obs.ProfileRecorder
	if *profileDir != "" {
		profiles, err = obs.StartProfiles(*profileDir, obs.DefaultProfileInterval)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("profiling into %s (rotating every %v)", *profileDir, obs.DefaultProfileInterval)
	}

	// The handler goes in before the listener exists: once a client can
	// connect (or a supervisor can read the "serving on" line), a SIGTERM
	// must already mean drain-and-write-the-manifest, never the default kill.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("serving on http://%s/ (%d workers, batch %d, depth %d, per-client %d)",
		ln.Addr(), workers, *batch, sess.Options().Depth, *perClient)

	// Graceful drain: flip /healthz and /map to 503, let in-flight requests
	// finish (bounded by -drain-timeout), drain the mapping pool, then write
	// the manifest so the run is diffable post-hoc.
	select {
	case <-ctx.Done():
		log.Printf("signal received, draining (timeout %v)", *drainTimeout)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}
	srv.EnterDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v (continuing)", err)
	}
	sess.Close()
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		log.Printf("serve: %v", serveErr)
	}
	if dbg != nil {
		dbg.Close()
	}
	if series != nil {
		if err := series.Stop(); err != nil {
			log.Fatal(err)
		}
	}
	if profiles != nil {
		if err := profiles.Stop(); err != nil {
			log.Fatal(err)
		}
	}
	if *reqTracePath != "" && tracer != nil {
		tf, err := os.Create(*reqTracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WritePerfettoRequests(tf, tracer.Snapshot()); err != nil {
			tf.Close()
			log.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("sampled request traces written to %s", *reqTracePath)
	}
	snap := reg.Snapshot()
	log.Printf("drained: %d requests, %d ok, %d reads mapped, %d queue rejects, %d client rejects, %d deadline expiries",
		snap.Counters[obs.MetricServeHTTPRequests], snap.Counters[obs.MetricServeHTTPOK],
		snap.Counters[obs.MetricServeReads], snap.Counters[obs.MetricServeQueueRejects],
		snap.Counters[obs.MetricServeClientRejects], snap.Counters[obs.MetricServeDeadline])
	if *manifest != "" {
		if err := man.AddWorkload("gbz", *gbzPath); err != nil {
			log.Fatal(err)
		}
		if *seriesPath != "" {
			// obsdiff resolves the archive by basename next to the manifest.
			man.AddResult(*seriesPath)
			man.Notes["series"] = filepath.Base(*seriesPath)
		}
		if *profileDir != "" {
			man.Notes["profiles"] = filepath.Base(*profileDir)
		}
		man.AddSlowReads(slow)
		man.AddReqTraces(tracer)
		if *reqTracePath != "" && tracer != nil {
			man.AddResult(*reqTracePath)
		}
		man.Finish(reg)
		if err := man.Write(*manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "run manifest written to %s\n", *manifest)
	}
}
