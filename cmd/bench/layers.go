package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/fastq"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/serve"
)

// probeReads is how many reads the probes run over; the workload's own
// front-end replay runs over the whole input.
const probeReads = 4096

// serveProbeRequests is how many 8-read requests the serving-path probes
// send.
const serveProbeRequests = 256

// traceRun is the state the traced run's probes and replays share: the
// workload's inputs loaded once, on the workload's tuning parameters.
type traceRun struct {
	j    *job
	w    workloadDef
	exp  *expected
	res  *Result
	f    *gbz.File
	ix   *giraffe.Indexes
	recs []seeds.ReadSeeds
	sub  []seeds.ReadSeeds // the first probeReads records
	m    *core.Mapper      // the workload's mapper, T threads
	m1   *core.Mapper      // the same parameters on one thread
}

// measured times fn and reports the allocator's work during it. Callers run
// it with no other goroutine active, so the deltas are fn's own.
func measured(fn func()) (d time.Duration, mallocs, allocBytes uint64) {
	before := readUsage()
	fn()
	after := readUsage()
	return after.at.Sub(before.at), after.mallocs - before.mallocs, after.bytes - before.bytes
}

// fastest returns the smallest of n timings of fn in milliseconds: set-up
// costs are one-off, and interference only ever adds to them.
func fastest(n int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ms := float64(time.Since(t0)) / 1e6; i == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// runTraced is the traced run. Every workload runs the same probes on its
// own inputs and tuning parameters (each layer through its exported
// functions, each front end's loop replayed once with spans over the probe
// reads), so a layer metric means the same on every workload; then the
// workload's own front end is replayed over the whole input for the rest of
// the time budget.
func runTraced(j *job, w workloadDef, exp *expected, res *Result) error {
	t := &traceRun{j: j, w: w, exp: exp, res: res}
	if w.front == frontServe {
		// giraffed's shipped defaults.
		t.w.batch, t.w.capacity, t.w.epoch = sched.DefaultBatchSize, gbwt.DefaultCacheCapacity, 0
	}
	if err := t.load(); err != nil {
		return err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"gbwt probes", t.probeGBWT},
		{"kernel probes", t.probeKernels},
		{"core probes", t.probeCore},
		{"sched probes", t.probeSched},
		{"ingest probes", t.probeIngest},
		{"observer overhead", t.probeObserver},
		{"epoch probe", t.probeEpoch},
		{"stream probe", t.probeStream},
		{"serve probe", t.probeServe},
		{"own front end", t.traceOwn},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// load reads the inputs and builds the indexes, timing each set-up layer.
func (t *traceRun) load() error {
	ms, err := fastest(3, func() (err error) { t.f, err = gbz.Load(t.j.Inputs.GBZ); return })
	if err != nil {
		return err
	}
	t.res.set("gbz.load_ms", ms)
	ms, err = fastest(3, func() (err error) { t.recs, err = seeds.ReadFile(t.j.Inputs.Seeds); return })
	if err != nil {
		return err
	}
	t.res.set("seeds.read_ns_per_read", ms*1e6/float64(len(t.recs)))
	ms, err = fastest(3, func() (err error) { _, err = core.NewMapper(t.f, t.w.coreOptions(t.j.Threads)); return })
	if err != nil {
		return err
	}
	t.res.set("core.newmapper_ms", ms)
	ms, err = fastest(3, func() (err error) { t.ix, err = giraffe.BuildIndexes(t.f); return })
	if err != nil {
		return err
	}
	t.res.set("giraffe.buildindexes_ms", ms)

	t.sub = t.recs
	if len(t.sub) > probeReads {
		t.sub = t.sub[:probeReads]
	}
	if t.m, err = core.NewMapperFromIndexes(t.f, t.ix.Dist, t.ix.Bi, t.w.coreOptions(t.j.Threads)); err != nil {
		return err
	}
	t.m1, err = core.NewMapperFromIndexes(t.f, t.ix.Dist, t.ix.Bi, t.w.coreOptions(1))
	return err
}

// check books a replay's output against the reference, read by read.
func (t *traceRun) check(exts [][]extend.Extension, what string) {
	want := *t.exp
	want.ReadHashes = want.ReadHashes[:len(exts)]
	failed, first := want.diff(exts)
	t.res.Attempted += int64(len(exts))
	t.res.Failed += failed
	if failed > 0 && t.res.FailNote == "" {
		t.res.FailNote = fmt.Sprintf("%s: read %s differs from the reference pass", what, t.recs[first].Read.Name)
	}
}

// probeGBWT times the haplotype index's three access paths: a record decode,
// and one bidirectional extension step through no cache, a warm private
// cache, and a published epoch snapshot.
func (t *traceRun) probeGBWT() error {
	fwd := t.ix.Bi.Forward()
	// Decode the records the seeds land on.
	var nodes []gbwt.NodeID
	seen := map[gbwt.NodeID]bool{}
	for i := range t.sub {
		for _, s := range t.sub[i].Seeds {
			if !seen[s.Pos.Node] {
				seen[s.Pos.Node] = true
				nodes = append(nodes, s.Pos.Node)
			}
		}
	}
	if len(nodes) == 0 {
		return fmt.Errorf("no seed nodes in the first %d reads", len(t.sub))
	}
	rounds := 1 + 200000/len(nodes)
	d, mallocs, _ := measured(func() {
		for r := 0; r < rounds; r++ {
			for _, v := range nodes {
				fwd.Record(v)
			}
		}
	})
	decodes := float64(rounds * len(nodes))
	t.res.set("gbwt.record_decode_ns", float64(d)/decodes)
	t.res.set("gbwt.record_decode_allocs", float64(mallocs)/decodes)

	// Extension steps along the first stretch of two haplotype paths: few
	// enough distinct nodes to fit the snapshot and the private cache.
	type step struct {
		from, to gbwt.NodeID
	}
	var steps []step
	for p := 0; p < 2 && p < t.f.Graph.NumPaths(); p++ {
		path := t.f.Graph.Path(p)
		for i := 0; i+1 < len(path) && i < 200; i++ {
			steps = append(steps, step{path[i], path[i+1]})
		}
	}
	walk := func(r gbwt.BiReader, rounds int) float64 {
		t0 := time.Now()
		for n := 0; n < rounds; n++ {
			for _, s := range steps {
				gbwt.ExtendRightWith(r, t.ix.Bi.BiFullState(s.from), s.to)
			}
		}
		return float64(time.Since(t0)) / float64(rounds*len(steps))
	}
	t.res.set("gbwt.extend_uncached_ns", walk(t.ix.Bi.NewBiReader(0), 50))
	private := t.ix.Bi.NewBiReader(gbwt.DefaultCacheCapacity)
	walk(private, 1)
	t.res.set("gbwt.extend_private_ns", walk(private, 500))
	shared := gbwt.NewSharedBi(t.ix.Bi, gbwt.EpochConfig{Capacity: 512, Workers: 1, Interval: 1})
	walk(shared.NewBiReader(0, gbwt.DefaultCacheCapacity), 2) // misses feed the frequency sketch
	if _, ok := shared.MaybePublish(); !ok || shared.Resident() == 0 {
		return fmt.Errorf("epoch snapshot did not publish (resident %d)", shared.Resident())
	}
	t.res.set("gbwt.extend_snapshot_ns", walk(shared.NewBiReader(0, gbwt.DefaultCacheCapacity), 500))

	// What every batch (and every served request) pays before its first
	// lookup: a fresh reader on the workload's cache capacity.
	const builds = 2000
	t0 := time.Now()
	for i := 0; i < builds; i++ {
		t.m1.NewReader(0)
	}
	t.res.set("gbwt.cache_build_ns", float64(time.Since(t0))/builds)
	return nil
}

// probeKernels times the two critical functions alone, one thread, per read.
func (t *traceRun) probeKernels() error {
	opts := t.m1.Options()
	n := float64(len(t.sub))
	clusters := make([][]cluster.Cluster, len(t.sub))
	d, mallocs, _ := measured(func() {
		for i := range t.sub {
			clusters[i] = cluster.ClusterSeeds(t.ix.Dist, t.sub[i].Seeds, opts.Cluster, nil, i)
		}
	})
	t.res.set("cluster.ns_per_read", float64(d)/n)
	t.res.set("cluster.allocs_per_read", float64(mallocs)/n)

	exts := make([][]extend.Extension, len(t.sub))
	d, mallocs, allocBytes := measured(func() {
		var env *extend.Env
		for i := range t.sub {
			if i%opts.BatchSize == 0 {
				env = &extend.Env{Graph: t.f.Graph, Bi: t.m1.NewReader(0)}
			}
			exts[i] = extend.ProcessUntilThresholdC(env, &t.sub[i].Read, t.sub[i].Seeds, clusters[i], opts.Extend, i)
		}
	})
	t.check(exts, "kernel probe")
	total, mapped := 0, 0
	for _, e := range exts {
		total += len(e)
		if len(e) > 0 {
			mapped++
		}
	}
	t.res.set("extend.ns_per_read", float64(d)/n)
	t.res.set("extend.allocs_per_read", float64(mallocs)/n)
	t.res.set("extend.bytes_per_read", float64(allocBytes)/n)
	t.res.set("extend.extensions_per_read", float64(total)/n)
	t.res.set("extend.mapped_share", float64(mapped)/n)

	d, mallocs, _ = measured(func() {
		for i := range t.sub {
			_ = core.WriteCSVRecord(io.Discard, &t.sub[i], exts[i]) // io.Discard cannot fail
		}
	})
	t.res.set("core.writecsv_ns_per_read", float64(d)/n)
	t.res.set("core.writecsv_allocs_per_read", float64(mallocs)/n)
	return nil
}

// probeCore times the mapper's three levels on one thread, each the previous
// plus one layer: MapRecord on a warm reader, MapBatch (adds the per-batch
// cache build), Run (adds the scheduler), and pipeline.Run over the same
// records (adds the streaming stages).
func (t *traceRun) probeCore() error {
	n := float64(len(t.sub))
	opts := t.m1.Options()
	exts := make([][]extend.Extension, len(t.sub))
	reader := t.m1.NewReader(0)
	for i := range t.sub {
		t.m1.MapRecord(0, reader, &t.sub[i], i)
	}
	t0 := time.Now()
	for i := range t.sub {
		exts[i] = t.m1.MapRecord(0, reader, &t.sub[i], i)
	}
	t.res.set("core.maprecord_ns_per_read", float64(time.Since(t0))/n)
	t.check(exts, "MapRecord probe")

	t0 = time.Now()
	for lo := 0; lo < len(t.sub); lo += opts.BatchSize {
		hi := min(lo+opts.BatchSize, len(t.sub))
		t.m1.MapBatch(0, t.sub[lo:hi], lo, exts[lo:hi])
	}
	t.res.set("core.mapbatch_ns_per_read", float64(time.Since(t0))/n)
	t.check(exts, "MapBatch probe")

	t0 = time.Now()
	run, err := t.m1.Run(t.sub)
	if err != nil {
		return err
	}
	t.res.set("core.run_ns_per_read", float64(time.Since(t0))/n)
	t.check(run.Extensions, "Run probe")

	t0 = time.Now()
	d := &diffEmitter{exp: t.exp}
	if _, err := pipeline.Run(t.m1, pipeline.NewSliceSource(t.sub), d, t.w.pipelineOptions(1)); err != nil {
		return err
	}
	t.res.set("pipeline.run_ns_per_read", float64(time.Since(t0))/n)
	t.res.Attempted += int64(d.i)
	t.res.Failed += d.failed
	return nil
}

// probeSched times the scheduler alone and the run's scaling: the cost of
// claiming a batch, how evenly T workers shared a pass, and the rate on T
// threads over T times the single-thread rate (the paper's scaling axis; the
// one-thread pass is the plain baseline).
func (t *traceRun) probeSched() error {
	opts := t.m.Options()
	const items = 1 << 22
	t0 := time.Now()
	if _, err := sched.RunBatches(sched.Config{Kind: opts.Scheduler, Threads: opts.Threads, BatchSize: opts.BatchSize},
		items, func(int, int, int) {}); err != nil {
		return err
	}
	t.res.set("sched.claim_ns_per_batch", float64(time.Since(t0))/float64(items/opts.BatchSize))

	var one, many []float64
	var last *core.Result
	for i := 0; i < 2; i++ {
		r1, err := t.m1.Run(t.recs)
		if err != nil {
			return err
		}
		one = append(one, r1.Makespan.Seconds())
		if last, err = t.m.Run(t.recs); err != nil {
			return err
		}
		many = append(many, last.Makespan.Seconds())
	}
	t.check(last.Extensions, "Run on T threads")
	t.res.set("sched.imbalance", last.Sched.Imbalance())
	t.res.set("sched.parallel_eff", min(one[0], one[1])/(float64(opts.Threads)*min(many[0], many[1])))
	c := last.Cache
	t.res.set("gbwt.hit_ratio", float64(c.TotalHits())/float64(max(c.Accesses, 1)))
	t.res.set("gbwt.rehashes_per_kread", float64(c.Rehashes)*1000/float64(len(t.recs)))
	return nil
}

// probeIngest times the FASTQ path's two per-read steps alone.
func (t *traceRun) probeIngest() error {
	file, err := os.Open(t.j.Inputs.FASTQ)
	if err != nil {
		return err
	}
	defer file.Close()
	sc := fastq.NewScanner(file)
	reads := make([]dna.Read, 0, len(t.sub))
	t0 := time.Now()
	for len(reads) < len(t.sub) {
		rd, err := sc.Next()
		if err != nil {
			return fmt.Errorf("%s: %w", t.j.Inputs.FASTQ, err)
		}
		reads = append(reads, rd)
	}
	n := float64(len(reads))
	t.res.set("fastq.parse_ns_per_read", float64(time.Since(t0))/n)
	t0 = time.Now()
	for i := range reads {
		if _, err := giraffe.Preprocess(t.ix.MinIx, &reads[i]); err != nil {
			return err
		}
	}
	t.res.set("giraffe.preprocess_us_per_read", float64(time.Since(t0))/n/1e3)
	return nil
}

// probeObserver is the observer's own cost: batch passes with the metrics
// registry and the slow-read reservoir set against passes with neither,
// interleaved, as the share of throughput lost.
func (t *traceRun) probeObserver() error {
	opts := t.w.coreOptions(t.j.Threads)
	opts.Obs = obs.NewRegistry(t.j.Threads)
	opts.Slow = obs.NewSlowReads(t.j.Threads, 16)
	observed, err := core.NewMapperFromIndexes(t.f, t.ix.Dist, t.ix.Bi, opts)
	if err != nil {
		return err
	}
	recs := t.recs
	if len(recs) > 4*probeReads {
		recs = recs[:4*probeReads]
	}
	var off, on []float64
	for i := 0; i < 5; i++ {
		r, err := t.m.Run(recs)
		if err != nil {
			return err
		}
		off = append(off, r.Makespan.Seconds())
		if r, err = observed.Run(recs); err != nil {
			return err
		}
		on = append(on, r.Makespan.Seconds())
		if i == 0 {
			t.check(r.Extensions, "Run with the observer on")
		}
	}
	t.res.set("obs.overhead_share", 1-median(off)/median(on))
	return nil
}

// probeEpoch replays the batch loop once on batch_zipf_epoch's tuning
// parameters (the workload's own, there), for the epoch cache's metrics: the
// other workloads run with the epoch cache off and would have none.
func (t *traceRun) probeEpoch() error {
	opts := t.w.coreOptions(t.j.Threads)
	opts.BatchSize, opts.CacheCapacity, opts.EpochCapacity = 128, 128, 512
	m, err := core.NewMapperFromIndexes(t.f, t.ix.Dist, t.ix.Bi, opts)
	if err != nil {
		return err
	}
	tr := newTracer(opts.Threads, batchReplaySpans(len(t.sub), opts.BatchSize))
	exts, cache, published, err := replayBatch(m, t.ix, t.sub, tr)
	if err != nil {
		return err
	}
	t.check(exts, "epoch batch replay")
	var tot layerTotals
	tot.add(tr, opts.Threads, 0)
	t.res.set("gbwt.epoch_publishes", float64(published))
	// Nearly all publish spans are clock ticks that publish nothing; the
	// layer's cost is the total over the publications made.
	t.res.set("gbwt.epoch_publish_ms", float64(tot.total[layerEpochPublish])/1e6/float64(max(published, 1)))
	t.res.set("gbwt.shared_hit_ratio", float64(cache.SharedHits)/float64(max(cache.Accesses, 1)))
	return nil
}

// probeStream replays the streaming loop once over the probe reads and
// reads the stage costs off its spans.
func (t *traceRun) probeStream() error {
	opts := t.w.pipelineOptions(t.j.Threads)
	tr := newTracer(opts.Workers+2, len(t.sub)/opts.BatchSize+16)
	n, lat, err := replayStream(t.m, t.ix, t.j.Inputs.FASTQ, io.Discard, opts, len(t.sub), tr)
	if err != nil {
		return err
	}
	if n != len(t.sub) {
		return fmt.Errorf("stream replay emitted %d of %d reads", n, len(t.sub))
	}
	var tot layerTotals
	tot.add(tr, opts.Workers, 0)
	perRead := float64(n) * 1e3
	t.res.set("pipeline.ingest_us_per_read", float64(tot.total[layerIngest])/perRead)
	t.res.set("pipeline.map_us_per_read", float64(tot.total[layerMapBatch])/perRead)
	t.res.set("pipeline.emit_us_per_read", float64(tot.total[layerEmit])/perRead)
	latencyMs := make([]float64, len(lat))
	for i, d := range lat {
		latencyMs[i] = float64(d) / 1e6
	}
	t.res.set("pipeline.batch_latency_ms_p50", quantile(sortedCopy(latencyMs), 0.5))
	return nil
}

// serving is the serving path built in-process the way cmd/giraffed builds
// it: shipped defaults, registry and request tracing on.
type serving struct {
	sess    *pipeline.Session
	handler http.Handler
	pool    requestPool
}

func (t *traceRun) newServing() (*serving, error) {
	s := &serving{}
	if err := readJSON(t.j.Inputs.Requests, &s.pool); err != nil {
		return nil, err
	}
	threads := t.j.Threads
	reg := obs.NewRegistry(threads + 2)
	m, err := core.NewMapperFromIndexes(t.f, t.ix.Dist, t.ix.Bi, core.Options{Threads: threads, Scheduler: sched.Dynamic, Obs: reg})
	if err != nil {
		return nil, err
	}
	if s.sess, err = pipeline.NewSession(m, pipeline.Options{Workers: threads, Scheduler: sched.Dynamic}, reg); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Session: s.sess,
		Extract: func(read *dna.Read) (seeds.ReadSeeds, error) { return giraffe.Preprocess(t.ix.MinIx, read) },
		Reg:     reg,
		Traces:  obs.NewReqTracer(threads, 32, 256, reg),
	})
	if err != nil {
		s.sess.Close()
		return nil, err
	}
	s.handler = srv.Handler()
	return s, nil
}

// handle answers request n through the real handler, in-process, and
// returns the response body and the time the handler took.
func (s *serving) handle(n int) ([]byte, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(s.pool.Bodies[n]))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	s.handler.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("in-process /map answered %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), d, nil
}

// replay answers request n through the span-recording stand-in for the
// handler and books its output against the reference.
func (s *serving) replay(t *traceRun, n int, tr *tracer) ([]byte, time.Duration, error) {
	t0 := time.Now()
	_, body, err := replayServe(context.Background(), t.ix, s.sess, s.pool.Bodies[n], n, tr)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	t.res.Attempted++
	if !s.pool.verify(n, body) {
		t.res.Failed++
		t.res.FailNote = fmt.Sprintf("serve replay: the results of request %d differ from the reference pass", n)
	}
	return body, d, nil
}

// probeServe measures the serving path three ways over the first requests
// of the pool: the decomposed request replay with spans, the real handler
// called in-process, and the handler behind a loopback listener.
func (t *traceRun) probeServe() error {
	s, err := t.newServing()
	if err != nil {
		return err
	}
	defer s.sess.Close()
	bodies := s.pool.Bodies[:min(serveProbeRequests, len(s.pool.Bodies))]
	requests := float64(len(bodies))
	d, _, _ := measured(func() {
		for _, b := range bodies {
			var req serve.MapRequest
			_ = json.Unmarshal(b, &req) // marshalled by buildRequestPool; cannot fail
		}
	})
	t.res.set("serve.json_decode_us", float64(d)/1e3/requests)

	tr := newTracer(1, 8*len(bodies))
	var handlerUs, submitUs []float64
	for n := range bodies {
		_, d, err := s.handle(n)
		if err != nil {
			return err
		}
		handlerUs = append(handlerUs, float64(d)/1e3)
		if _, _, err := s.replay(t, n, tr); err != nil {
			return err
		}
	}
	var tot layerTotals
	tot.add(tr, 1, 0)
	for _, sp := range tr.tracks[0] {
		if sp.layer == layerSubmit {
			submitUs = append(submitUs, float64(sp.end-sp.start)/1e3)
		}
	}
	sortedSubmit := sortedCopy(submitUs)
	handlerP50 := quantile(sortedCopy(handlerUs), 0.5)
	t.res.set("pipeline.submit_us_p50", quantile(sortedSubmit, 0.5))
	t.res.set("pipeline.submit_us_p90", quantile(sortedSubmit, 0.9))
	t.res.set("serve.json_encode_us", float64(tot.total[layerJSONEncode])/1e3/requests)
	t.res.set("serve.handler_us_p50", handlerP50)
	// What the handler spends outside preprocessing and the session: JSON,
	// admission, tracing, response assembly.
	t.res.set("serve.self_us", handlerP50-float64(tot.total[layerPreprocess])/1e3/requests-quantile(sortedSubmit, 0.5))

	// Transport floor: the same handler behind a loopback listener, one
	// keep-alive connection, the cheapest route.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.handler}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	client := &http.Client{Timeout: requestTimeout}
	var rttUs []float64
	for i := 0; i < 300 && err == nil; i++ {
		t0 := time.Now()
		var r *http.Response
		if r, err = client.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, r.Body) // drained to keep the connection
			r.Body.Close()
			rttUs = append(rttUs, float64(time.Since(t0))/1e3)
		}
	}
	client.CloseIdleConnections()
	_ = httpSrv.Close() // only Serve's return matters
	<-served
	if err != nil {
		return err
	}
	t.res.set("serve.http_rtt_us_p50", quantile(sortedCopy(rttUs), 0.5))
	return nil
}

// batchReplaySpans is the most spans one worker can record in a batch replay
// pass (when it claims every batch): two per read, three per batch.
func batchReplaySpans(reads, batch int) int { return 2*reads + 3*(reads/batch+1) }

// ownLoop is a workload's own front end in two forms over the whole input:
// the real loop with tracing off, and the replay that records spans into tr
// and books its output against the reference. Each returns the time the
// loop itself took and the digest of what it produced.
type ownLoop struct {
	tr       *tracer
	workers  int // leading tracks of tr that carry the mapping work
	reads    int // reads per pass
	untraced func() (time.Duration, string, error)
	traced   func() (time.Duration, string, error)
}

func (t *traceRun) ownBatch() *ownLoop {
	opts := t.m.Options()
	tr := newTracer(opts.Threads, batchReplaySpans(len(t.recs), opts.BatchSize))
	// Neither pass keeps its result: each runs with only the records alive,
	// as a single run of the proxy does.
	return &ownLoop{
		tr: tr, workers: opts.Threads, reads: len(t.recs),
		untraced: func() (time.Duration, string, error) {
			t0 := time.Now()
			plain, err := t.m.Run(t.recs)
			d := time.Since(t0)
			if err != nil {
				return 0, "", err
			}
			t.check(plain.Extensions, "untraced pass")
			digest, err := csvDigest(t.recs, plain.Extensions)
			return d, digest, err
		},
		traced: func() (time.Duration, string, error) {
			t0 := time.Now()
			exts, _, _, err := replayBatch(t.m, t.ix, t.recs, tr)
			d := time.Since(t0)
			if err != nil {
				return 0, "", err
			}
			t.check(exts, "batch replay")
			digest, err := csvDigest(t.recs, exts)
			return d, digest, err
		},
	}
}

func (t *traceRun) ownStream() *ownLoop {
	opts := t.w.pipelineOptions(t.j.Threads)
	tr := newTracer(opts.Workers+2, len(t.recs)/opts.BatchSize+16)
	return &ownLoop{
		tr: tr, workers: opts.Workers, reads: len(t.recs),
		untraced: func() (time.Duration, string, error) {
			src, err := giraffe.OpenExtractSource(t.ix.MinIx, t.j.Inputs.FASTQ, 0)
			if err != nil {
				return 0, "", err
			}
			defer src.Close()
			h := sha256.New()
			t0 := time.Now()
			_, err = pipeline.RunToCSV(t.m, src, h, opts)
			return time.Since(t0), hex.EncodeToString(h.Sum(nil)), err
		},
		traced: func() (time.Duration, string, error) {
			h := sha256.New()
			t0 := time.Now()
			n, _, err := replayStream(t.m, t.ix, t.j.Inputs.FASTQ, h, opts, 0, tr)
			d := time.Since(t0)
			if err != nil {
				return 0, "", err
			}
			digest := hex.EncodeToString(h.Sum(nil))
			t.res.Attempted += int64(len(t.recs))
			if n != len(t.recs) || digest != t.exp.CSVSHA256 {
				t.res.Failed += int64(len(t.recs))
				t.res.FailNote = fmt.Sprintf("stream replay emitted %d of %d reads with digest %s, the reference pass's is %s", n, len(t.recs), digest, t.exp.CSVSHA256)
			}
			return d, digest, nil
		},
	}
}

// ownServe answers one sweep of the request pool per pass, one caller: the
// sweep whose results the untraced run digested from giraffed's responses.
func (t *traceRun) ownServe(s *serving) *ownLoop {
	tr := newTracer(1, 8*len(s.pool.Bodies))
	sweep := func(answer func(n int) ([]byte, time.Duration, error)) (time.Duration, string, error) {
		h := sha256.New()
		var total time.Duration
		for n := range s.pool.Bodies {
			body, d, err := answer(n)
			if err == nil {
				err = foldResults(h, body)
			}
			if err != nil {
				return 0, "", err
			}
			total += d
		}
		return total, hex.EncodeToString(h.Sum(nil)), nil
	}
	return &ownLoop{
		tr: tr, workers: 1, reads: len(s.pool.Bodies) * readsPerRequest,
		untraced: func() (time.Duration, string, error) { return sweep(s.handle) },
		traced: func() (time.Duration, string, error) {
			return sweep(func(n int) ([]byte, time.Duration, error) { return s.replay(t, n, tr) })
		},
	}
}

// traceOwn runs the workload's own front end for most of the time budget:
// whole passes, the real loop and the traced replay alternating, so that
// tracing overhead and coverage are measured where they matter. The replay
// must reproduce the untraced loop's output, its last pass goes to
// trace.json, and the untraced digest is the run's.
func (t *traceRun) traceOwn() error {
	var own *ownLoop
	switch t.w.front {
	case frontBatch:
		own = t.ownBatch()
	case frontStream:
		own = t.ownStream()
	case frontServe:
		s, err := t.newServing()
		if err != nil {
			return err
		}
		defer s.sess.Close()
		own = t.ownServe(s)
	}
	var tot layerTotals
	var untraced, traced []float64
	deadline := time.Now().Add(time.Duration(t.j.Seconds * 0.6 * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var plainDigest, replayDigest string
		plain := func() error {
			d, digest, err := own.untraced()
			untraced = append(untraced, float64(own.reads)/d.Seconds())
			plainDigest = digest
			return err
		}
		replay := func() error {
			own.tr.reset()
			d, digest, err := own.traced()
			traced = append(traced, float64(own.reads)/d.Seconds())
			tot.add(own.tr, own.workers, d)
			replayDigest = digest
			return err
		}
		// Alternate which goes first, so neither always inherits the other's
		// garbage.
		first, second := plain, replay
		if pass%2 == 1 {
			first, second = replay, plain
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		if replayDigest != plainDigest {
			t.res.Failed++
			t.res.FailNote = fmt.Sprintf("replay digest %s differs from the untraced pass's %s", replayDigest, plainDigest)
		}
		t.res.OutputSHA256 = plainDigest
	}
	t.res.Layers = tot.summaries()
	t.res.set("trace.coverage", tot.coverage())
	t.res.set("trace.overhead_share", 1-median(traced)/median(untraced))
	t.res.set("trace.untraced_reads_per_s", median(untraced))
	return own.tr.writeTrace(t.j.TracePath)
}
