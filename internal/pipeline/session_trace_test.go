package pipeline_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestSubmitTracedSpans: a traced request records one queue_wait and one
// map_subbatch span per sub-batch, worker-attributed, all landed before
// SubmitTraced returns on the success path.
func TestSubmitTracedSpans(t *testing.T) {
	tracer := obs.NewReqTracer(1, 4, 4, nil)
	fm := &fakeMapper{}
	sess, err := pipeline.NewSession(fm, pipeline.Options{Workers: 2, BatchSize: 4, Depth: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	id := trace.ID{Hi: 3, Lo: 14}
	rt := tracer.Start(id, "c")
	if _, err := sess.SubmitTraced(context.Background(), mkRecs(10), rt); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(rt, 200)

	snap := tracer.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("sampled %d traces, want 1", len(snap.Traces))
	}
	var qw, ms int
	for _, sp := range snap.Traces[0].Spans {
		switch sp.Name {
		case obs.SpanQueueWait:
			qw++
		case obs.SpanMapSubbatch:
			ms++
			if sp.Worker < 0 || sp.Worker > 1 {
				t.Fatalf("map span worker = %d", sp.Worker)
			}
			if sp.Canceled {
				t.Fatalf("uncanceled request has canceled map span")
			}
		default:
			t.Fatalf("unexpected span %q from the session layer", sp.Name)
		}
	}
	// 10 reads at batch size 4 → 3 sub-batches.
	if qw != 3 || ms != 3 {
		t.Fatalf("spans: %d queue_wait + %d map_subbatch, want 3 + 3", qw, ms)
	}
}

// TestSessionOverloadQueueWaitAgreement drives the session into queue backlog
// with every request traced and a reservoir large enough to sample all of
// them, then checks the two views of queueing time against each other: the
// serve_queue_wait_seconds histogram (exact integer-nanosecond sum) and the
// queue_wait spans in the sampled traces. The session feeds both from the
// same measured duration, so they must agree to float conversion precision —
// a drift means one of the two instrumentation paths broke.
func TestSessionOverloadQueueWaitAgreement(t *testing.T) {
	reg := obs.NewRegistry(3)
	tracer := obs.NewReqTracer(2, 64, 64, nil)
	fm := &fakeMapper{delay: 200 * time.Microsecond}
	sess, err := pipeline.NewSession(fm, pipeline.Options{Workers: 2, BatchSize: 4, Depth: 256}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const reqs = 8
	const readsPerReq = 16 // 4 sub-batches each
	traces := make([]*obs.ReqTrace, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		rt := tracer.Start(trace.ID{Hi: 1, Lo: uint64(i + 1)}, "c")
		traces[i] = rt
		wg.Add(1)
		go func(rt *obs.ReqTrace) {
			defer wg.Done()
			if _, err := sess.SubmitTraced(context.Background(), mkRecs(readsPerReq), rt); err != nil {
				t.Error(err)
			}
		}(rt)
	}
	wg.Wait()
	for _, rt := range traces {
		tracer.Finish(rt, 200)
	}

	snap := tracer.Snapshot()
	if len(snap.Traces) != reqs {
		t.Fatalf("sampled %d traces, want all %d", len(snap.Traces), reqs)
	}
	var spanSum int64
	var spanCount int64
	for _, tr := range snap.Traces {
		for _, sp := range tr.Spans {
			if sp.Name == obs.SpanQueueWait {
				spanSum += sp.DurNanos
				spanCount++
			}
		}
	}
	h := reg.Snapshot().Histograms[obs.MetricServeQueueWait]
	wantJobs := int64(reqs * readsPerReq / 4)
	if h.Count != wantJobs || spanCount != wantJobs {
		t.Fatalf("queue-wait observations: histogram %d, spans %d, want %d each", h.Count, spanCount, wantJobs)
	}
	spanSeconds := float64(spanSum) / 1e9
	tol := 1e-9 * math.Max(1, h.SumSeconds)
	if diff := math.Abs(spanSeconds - h.SumSeconds); diff > tol {
		t.Fatalf("queue-wait disagreement: spans %.9fs vs histogram %.9fs (diff %.3g)",
			spanSeconds, h.SumSeconds, diff)
	}
}

// TestSubmitTracedMarksExpiredOnArrival: a request whose context is already
// done is never queued, so no worker can mark it; the session leaves the one
// cancel span itself, on the handler's row (worker -1).
func TestSubmitTracedMarksExpiredOnArrival(t *testing.T) {
	tracer := obs.NewReqTracer(1, 1, 4, nil)
	sess, err := pipeline.NewSession(&fakeMapper{}, pipeline.Options{Workers: 1, BatchSize: 4, Depth: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := tracer.Start(trace.ID{Hi: 2, Lo: 71}, "c")
	if _, err := sess.SubmitTraced(ctx, mkRecs(10), rt); err != context.Canceled {
		t.Fatalf("SubmitTraced on a done context: %v, want context.Canceled", err)
	}
	tracer.Finish(rt, 504)
	snap := tracer.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("sampled %d traces, want 1", len(snap.Traces))
	}
	spans := snap.Traces[0].Spans
	if len(spans) != 1 || spans[0].Name != obs.SpanCancel || spans[0].Worker != -1 {
		t.Fatalf("spans = %+v, want one cancel span on worker -1", spans)
	}
}
