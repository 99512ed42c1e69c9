package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/giraffe"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/serve"
)

// The replays re-drive each front end's loop from this package, using only
// exported calls, with a span around each call into a layer. With a nil
// tracer the same loops run untraced. Each must produce exactly the output
// of the loop it stands in for; callers compare digests.

// replayBatch stands in for core.Mapper.Run: the scheduler hands out
// batches; each batch builds its reader, maps its reads through the two
// kernels, and ticks the epoch clock. published counts the epoch
// publications the pass performed.
func replayBatch(m *core.Mapper, ix *giraffe.Indexes, recs []seeds.ReadSeeds, tr *tracer) (exts [][]extend.Extension, cache gbwt.CacheStats, published int, err error) {
	opts := m.Options()
	exts = make([][]extend.Extension, len(recs))
	perWorker := make([]gbwt.CacheStats, opts.Threads)
	pubs := make([]int, opts.Threads)
	_, err = sched.RunBatches(sched.Config{Kind: opts.Scheduler, Threads: opts.Threads, BatchSize: opts.BatchSize},
		len(recs), func(worker, lo, hi int) {
			b := tr.begin(worker, layerBatch, lo/opts.BatchSize)
			s := tr.begin(worker, layerCacheBuild, lo/opts.BatchSize)
			reader := m.NewReader(worker)
			tr.end(worker, s)
			env := &extend.Env{Graph: ix.File.Graph, Bi: reader}
			for i := lo; i < hi; i++ {
				s = tr.begin(worker, layerCluster, i)
				cls := cluster.ClusterSeeds(ix.Dist, recs[i].Seeds, opts.Cluster, nil, i)
				tr.end(worker, s)
				s = tr.begin(worker, layerExtend, i)
				exts[i] = extend.ProcessUntilThresholdC(env, &recs[i].Read, recs[i].Seeds, cls, opts.Extend, i)
				tr.end(worker, s)
			}
			perWorker[worker].Add(core.ReaderCacheStats(reader))
			s = tr.begin(worker, layerEpochPublish, lo/opts.BatchSize)
			if m.TryPublishEpoch(worker) {
				pubs[worker]++
			}
			tr.end(worker, s)
			tr.end(worker, b)
		})
	for w := range perWorker {
		cache.Add(perWorker[w])
		published += pubs[w]
	}
	return exts, cache, published, err
}

// streamBatch is one in-flight batch of the stream replay.
type streamBatch struct {
	seq, base int
	recs      []seeds.ReadSeeds
	exts      [][]extend.Extension
	ingested  time.Time
}

// replayStream stands in for pipeline.RunToCSV over a giraffe.ExtractSource:
// one ingest goroutine pulls batches from the source, workers map them,
// the caller emits them in input order. Tracks 0..Workers-1 are the
// workers, Workers the ingest stage, Workers+1 the emit stage. maxReads > 0
// stops ingest early. It returns the reads emitted and each batch's
// ingest-to-emit latency.
func replayStream(m *core.Mapper, ix *giraffe.Indexes, fastqPath string, w io.Writer, opts pipeline.Options, maxReads int, tr *tracer) (reads int, latencies []time.Duration, err error) {
	src, err := giraffe.OpenExtractSource(ix.MinIx, fastqPath, 0)
	if err != nil {
		return 0, nil, err
	}
	defer src.Close()
	emitter, err := pipeline.NewCSVEmitter(w)
	if err != nil {
		return 0, nil, err
	}
	ingestTrack, emitTrack := opts.Workers, opts.Workers+1
	// Both channels hold the in-flight window, 2×Workers batches, as the
	// pipeline's default depth does.
	work := make(chan *streamBatch, 2*opts.Workers)
	done := make(chan *streamBatch, 2*opts.Workers)
	var ingestErr error
	go func() {
		defer close(work)
		for seq, base := 0, 0; ; seq++ {
			start := time.Now()
			s := tr.begin(ingestTrack, layerIngest, seq)
			recs := make([]seeds.ReadSeeds, 0, opts.BatchSize)
			var nerr error
			for len(recs) < opts.BatchSize && (maxReads <= 0 || base+len(recs) < maxReads) {
				var r *seeds.ReadSeeds
				if r, nerr = src.Next(); nerr != nil {
					break
				}
				recs = append(recs, *r)
			}
			tr.end(ingestTrack, s)
			if len(recs) > 0 {
				work <- &streamBatch{seq: seq, base: base, recs: recs, exts: make([][]extend.Extension, len(recs)), ingested: start}
				base += len(recs)
			}
			if nerr != nil || len(recs) < opts.BatchSize {
				if nerr != nil && nerr != io.EOF {
					ingestErr = nerr
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for worker := 0; worker < opts.Workers; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for b := range work {
				s := tr.begin(worker, layerMapBatch, b.seq)
				m.MapBatch(worker, b.recs, b.base, b.exts)
				m.TryPublishEpoch(worker)
				tr.end(worker, s)
				done <- b
			}
		}(worker)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	pending := map[int]*streamBatch{}
	next := 0
	for b := range done {
		pending[b.seq] = b
		for nb := pending[next]; nb != nil; nb = pending[next] {
			delete(pending, next)
			next++
			if err != nil {
				continue // an emit failed: drain without emitting
			}
			s := tr.begin(emitTrack, layerEmit, nb.seq)
			for k := range nb.recs {
				if err = emitter.Emit(&nb.recs[k], nb.exts[k]); err != nil {
					break
				}
			}
			tr.end(emitTrack, s)
			reads += len(nb.recs)
			latencies = append(latencies, time.Since(nb.ingested))
		}
	}
	if err == nil {
		// done is closed only after ingest closed work, so ingestErr is set.
		err = ingestErr
	}
	if err == nil {
		err = emitter.Flush()
	}
	return reads, latencies, err
}

// replayServe stands in for serve's /map handler on one request: decode the
// body, preprocess each read, submit to the session, encode the response.
// It returns the extensions (for the output check) and the encoded body.
func replayServe(ctx context.Context, ix *giraffe.Indexes, sess *pipeline.Session, body []byte, op int, tr *tracer) ([][]extend.Extension, []byte, error) {
	const track = 0
	r := tr.begin(track, layerRequest, op)
	defer tr.end(track, r)

	s := tr.begin(track, layerJSONDecode, op)
	var req serve.MapRequest
	err := json.Unmarshal(body, &req)
	tr.end(track, s)
	if err != nil {
		return nil, nil, err
	}

	s = tr.begin(track, layerPreprocess, op)
	recs := make([]seeds.ReadSeeds, len(req.Reads))
	for i, wr := range req.Reads {
		seq, perr := dna.Parse(wr.Seq)
		if perr == nil {
			recs[i], perr = giraffe.Preprocess(ix.MinIx, &dna.Read{Name: wr.Name, Seq: seq, Fragment: -1})
		}
		if perr != nil {
			err = perr
			break
		}
	}
	tr.end(track, s)
	if err != nil {
		return nil, nil, err
	}

	s = tr.begin(track, layerSubmit, op)
	exts, err := sess.Submit(ctx, recs)
	tr.end(track, s)
	if err != nil {
		return nil, nil, err
	}

	s = tr.begin(track, layerJSONEncode, op)
	resp := serve.MapResponse{Client: "anon", Reads: len(recs), Results: make([]serve.WireResult, len(recs))}
	for i := range recs {
		resp.Results[i] = wireResult(recs[i].Read.Name, exts[i])
		resp.Extensions += len(exts[i])
	}
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(resp)
	tr.end(track, s)
	if err != nil {
		return nil, nil, err
	}
	return exts, out.Bytes(), nil
}
