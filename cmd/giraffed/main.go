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
// map_subbatch / emit span trees). The observability flags are the common
// ones (README "Observability").
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
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("giraffed: ")
	// Serving always runs with the registry on: request metrics are the
	// service's contract, not an optional extra.
	cfg := obs.StackConfig{Tool: "giraffed", Flags: flag.CommandLine, Obs: true}
	gbzPath := flag.String("gbz", "", "pangenome .gbz file (required)")
	addr := flag.String("addr", "localhost:8765", "serve address")
	flag.IntVar(&cfg.Threads, "threads", 0, "map-worker threads (0 = all CPUs)")
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
	flag.StringVar(&cfg.Manifest, "manifest", "", "write the run manifest JSON here on shutdown")
	flag.StringVar(&cfg.Series, "series", "", "archive a JSON-lines metric time-series here (flight recorder)")
	flag.DurationVar(&cfg.SeriesInterval, "series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	flag.IntVar(&cfg.Slow, "slow", 0, "retain the K slowest reads as exemplars (served at /slow, archived in the manifest)")
	flag.IntVar(&cfg.TraceK, "trace-k", 32, "tail-sample the K slowest 2xx requests per worker shard (0 disables request tracing)")
	flag.StringVar(&cfg.ReqTraces, "req-traces", "", "write sampled request traces as a Perfetto/Chrome trace file here on shutdown")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve pprof/expvar/progress on this extra address")
	flag.StringVar(&cfg.Profile, "profile", "", "continuous profiling: rotate labeled CPU/heap profile segments into this directory")
	flag.Parse()
	if *gbzPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := obs.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	workers, reg := stack.Workers, stack.Reg

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
		Slow:          stack.Slow,
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
		Slow:            stack.Slow,
		Traces:          stack.Traces,
		PerClient:       *perClient,
		MaxReads:        *maxReads,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
	})
	if err != nil {
		log.Fatal(err)
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
	// finish (bounded by -drain-timeout), drain the mapping pool, then close
	// the obs stack, which writes the manifest so the run is diffable post-hoc.
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
	snap := reg.Snapshot()
	log.Printf("drained: %d requests, %d ok, %d reads mapped, %d queue rejects, %d client rejects, %d deadline expiries",
		snap.Counters[obs.MetricServeHTTPRequests], snap.Counters[obs.MetricServeHTTPOK],
		snap.Counters[obs.MetricServeReads], snap.Counters[obs.MetricServeQueueRejects],
		snap.Counters[obs.MetricServeClientRejects], snap.Counters[obs.MetricServeDeadline])
	if err := stack.AddWorkload("gbz", *gbzPath); err != nil {
		log.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}
}
