package obs

// Canonical metric names. Every name handed to the Registry must be a
// string literal or a named constant (the metricname analyzer enforces
// this): metric cardinality stays bounded and the /metrics scrape is
// diffable between runs. Instrumented packages share these constants so
// the reporter and tools can find the pipeline's metrics by name.
const (
	// Streaming pipeline (internal/pipeline).
	MetricPipelineReads    = "pipeline_reads_total"
	MetricPipelineBatches  = "pipeline_batches_total"
	MetricPipelineInFlight = "pipeline_in_flight_batches"
	MetricStageIngest      = "pipeline_stage_ingest_seconds"
	MetricStageMap         = "pipeline_stage_map_seconds"
	MetricStageEmit        = "pipeline_stage_emit_seconds"
	MetricBatchLatency     = "pipeline_batch_seconds"

	// Scheduler claim/steal discipline (internal/sched and the streaming
	// claim queue).
	MetricSchedClaims = "sched_claims_total"
	MetricSchedSteals = "sched_steals_total"

	// Derived straggler gauges, recomputed on every scrape from the claim
	// counters' per-worker shards (Registry.SetWorkerShards declares the
	// worker population): max/mean claims per worker and steals/claims,
	// both in parts per thousand so they stay integers.
	MetricSchedClaimImbalance = "sched_claim_imbalance_milli"
	MetricSchedStealShare     = "sched_steal_share_milli"

	// Mapper kernels (internal/core): the paper's two critical functions
	// plus the per-batch CachedGBWT rebuild (§VII-B). Under the epoch
	// discipline MetricCacheBuild covers only the (small) private overflow
	// construction; the shared-epoch build cost lands in
	// MetricCacheBuildShared so the attribution split is visible in every
	// scrape.
	MetricClusterLatency   = "mapper_cluster_seeds_seconds"
	MetricThresholdLatency = "mapper_process_until_threshold_c_seconds"
	MetricCacheBuild       = "mapper_cache_build_seconds"

	// Epoch-published shared cache (internal/gbwt.SharedBiCache via
	// internal/core): publication count and build latency of the off-path
	// builder, resident record population of the live snapshots, and the
	// shared-vs-private hit split on the read side.
	MetricCacheBuildShared  = "mapper_cache_build_shared_seconds"
	MetricEpochPublishes    = "mapper_epoch_publishes_total"
	MetricEpochResident     = "mapper_epoch_resident_records"
	MetricEpochSharedHits   = "mapper_epoch_shared_hits_total"
	MetricEpochPrivateHits  = "mapper_epoch_private_hits_total"
	MetricEpochDecodeMisses = "mapper_epoch_decode_misses_total"

	// Streaming seed extraction (internal/giraffe.ExtractSource).
	MetricExtractReads      = "extract_reads_total"
	MetricExtractSeeds      = "extract_seeds_total"
	MetricExtractPreprocess = "extract_preprocess_seconds"

	// Serving session (pipeline.Session): the request-scoped view of the
	// mapping pool. Queue depth is the admission-control bound; rejected
	// requests never entered the queue; canceled batches are jobs whose
	// request deadline fired before (skipped entirely) or while (stopped at
	// a record boundary) a worker ran them.
	MetricServeQueueDepth     = "serve_queue_depth_batches"
	MetricServeInFlight       = "serve_in_flight_requests"
	MetricServeRequests       = "serve_requests_total"
	MetricServeReads          = "serve_reads_total"
	MetricServeQueueRejects   = "serve_queue_rejects_total"
	MetricServeCanceled       = "serve_canceled_batches_total"
	MetricServeCanceledReads  = "serve_canceled_reads_total"
	MetricServeServiceLatency = "serve_service_seconds"
	MetricServeQueueWait      = "serve_queue_wait_seconds"

	// Request-trace tail sampler (internal/obs/reqtrace.go): retained vs
	// lost traces. sampled counts every retention (2xx reservoir entries and
	// kept errors), errors the error-class subset, dropped the non-2xx traces
	// lost to the per-shard/run caps — nonzero dropped means the error cap is
	// undersized for the workload's failure rate.
	MetricServeTraceSampled = "serve_trace_sampled_total"
	MetricServeTraceErrors  = "serve_trace_errors_kept_total"
	MetricServeTraceDropped = "serve_trace_dropped_total"

	// Serving front end (internal/serve): HTTP-level admission and outcome
	// mix. Client rejects are per-client in-flight bound violations (the
	// queue rejects above are the shared-queue bound); deadline expiries
	// surface as 504s.
	MetricServeHTTPRequests  = "serve_http_requests_total"
	MetricServeHTTPOK        = "serve_http_ok_total"
	MetricServeClientRejects = "serve_client_rejects_total"
	MetricServeDeadline      = "serve_deadline_expired_total"
	MetricServeDrainRejects  = "serve_drain_rejects_total"
	MetricServeBadRequests   = "serve_bad_requests_total"
	MetricServeExtract       = "serve_extract_seconds"

	// Runtime telemetry (internal/obs/runtime.go): the Go runtime's own
	// behavior, sampled from runtime/metrics on every sampler tick so GC and
	// scheduler health are scraped and archived like any pipeline metric.
	// Counters advance by deltas of the runtime's cumulative totals; the
	// p99 gauges are run-level quantiles of the runtime's own histograms,
	// in integer microseconds. runtime_* series names must be named
	// constants declared here (the metricname analyzer enforces the
	// stricter rule for this prefix, keeping the runtime catalogue in one
	// place).
	MetricRuntimeGoroutines  = "runtime_goroutines"
	MetricRuntimeHeapLive    = "runtime_heap_live_bytes"
	MetricRuntimeHeapGoal    = "runtime_heap_goal_bytes"
	MetricRuntimeGCCycles    = "runtime_gc_cycles_total"
	MetricRuntimeGCCPU       = "runtime_gc_cpu_micros_total"
	MetricRuntimeHeapAllocs  = "runtime_heap_alloc_bytes_total"
	MetricRuntimeGCPauseP99  = "runtime_gc_pause_p99_micros"
	MetricRuntimeSchedLatP99 = "runtime_sched_latency_p99_micros"

	// Load generator (cmd/loadgen): the client-side view of the same
	// traffic, so a serving run and the loadgen run that drove it can be
	// read side by side.
	MetricLoadgenSent     = "loadgen_requests_total"
	MetricLoadgenOK       = "loadgen_ok_total"
	MetricLoadgenRejected = "loadgen_rejected_total"
	MetricLoadgenTimeout  = "loadgen_timeout_total"
	MetricLoadgenErrors   = "loadgen_errors_total"
	MetricLoadgenLatency  = "loadgen_service_seconds"
)
