package serve_test

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/trace"
)

func getTraces(t *testing.T, url string) obs.ReqTraceSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/traces status %d", resp.StatusCode)
	}
	var snap obs.ReqTraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func findTrace(snap obs.ReqTraceSnapshot, id trace.ID) *obs.SampledTrace {
	for i := range snap.Traces {
		if snap.Traces[i].TraceID == id {
			return &snap.Traces[i]
		}
	}
	return nil
}

func spanNames(tr *obs.SampledTrace) map[string]int {
	names := make(map[string]int)
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	return names
}

func TestTracePropagationAndSpans(t *testing.T) {
	tracer := obs.NewReqTracer(2, 8, 8, nil)
	ts, _ := harness(t, &fakeMapper{}, pipeline.Options{Workers: 2, BatchSize: 4, Depth: 16},
		serve.Config{Traces: tracer})

	id := trace.ID{Hi: 0xfeed, Lo: 0xbeef}
	resp := postMap(t, ts.URL, mapBody(t, 10), map[string]string{
		trace.TraceparentHeader: trace.Traceparent(id),
		"X-Client":              "alice",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	// The response echoes the trace identity: header and body.
	if got, ok := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader)); !ok || got != id {
		t.Fatalf("response traceparent = %q, want id %v", resp.Header.Get(trace.TraceparentHeader), id)
	}
	var mr serve.MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.TraceID != id {
		t.Fatalf("response trace_id = %v, want %v", mr.TraceID, id)
	}

	tr := findTrace(getTraces(t, ts.URL), id)
	if tr == nil {
		t.Fatal("2xx trace not sampled (k=8 reservoir should keep it)")
	}
	if tr.Client != "alice" || tr.Status != http.StatusOK || tr.Reads != 10 {
		t.Fatalf("trace header = %+v", tr)
	}
	names := spanNames(tr)
	// 10 reads at batch size 4 → 3 sub-batches, each with a queue_wait and a
	// map_subbatch span, bracketed by admit and emit.
	if names[obs.SpanAdmit] != 1 || names[obs.SpanEmit] != 1 ||
		names[obs.SpanQueueWait] != 3 || names[obs.SpanMapSubbatch] != 3 {
		t.Fatalf("span census = %v", names)
	}
	for _, sp := range tr.Spans {
		if sp.Name == obs.SpanMapSubbatch && sp.Worker < 0 {
			t.Fatalf("map span missing worker attribution: %+v", sp)
		}
		if sp.Canceled {
			t.Fatalf("successful request has canceled span %+v", sp)
		}
	}
}

func TestTraceGeneratedIDWithoutHeader(t *testing.T) {
	tracer := obs.NewReqTracer(1, 4, 4, nil)
	ts, _ := harness(t, &fakeMapper{}, pipeline.Options{Workers: 1, BatchSize: 8, Depth: 16},
		serve.Config{Traces: tracer})
	resp := postMap(t, ts.URL, mapBody(t, 2), nil)
	defer resp.Body.Close()
	var mr serve.MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.TraceID.IsZero() {
		t.Fatal("server did not generate a trace ID for a headerless request")
	}
	if findTrace(getTraces(t, ts.URL), mr.TraceID) == nil {
		t.Fatal("generated-ID trace not sampled")
	}
}

func TestTrace504KeptWithCancellation(t *testing.T) {
	tracer := obs.NewReqTracer(1, 1, 8, nil)
	fm := &fakeMapper{delay: 2 * time.Millisecond}
	ts, reg := harness(t, fm, pipeline.Options{Workers: 1, BatchSize: 8, Depth: 64},
		serve.Config{Traces: tracer})

	id := trace.ID{Hi: 5, Lo: 4}
	resp := postMap(t, ts.URL, mapBody(t, 256), map[string]string{
		trace.TraceparentHeader: trace.Traceparent(id),
		"X-Deadline-Ms":         "20",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	// Wait for the workers to drain the canceled sub-batches so their cancel
	// spans have landed on the trace.
	waitFor(t, func() bool {
		return reg.Snapshot().Gauges[obs.MetricServeQueueDepth] == 0
	})
	tr := findTrace(getTraces(t, ts.URL), id)
	if tr == nil {
		t.Fatal("504 trace not retained — tail sampler must keep every non-2xx")
	}
	if tr.Status != http.StatusGatewayTimeout {
		t.Fatalf("trace status = %d, want 504", tr.Status)
	}
	names := spanNames(tr)
	if names[obs.SpanAdmit] != 1 || names[obs.SpanQueueWait] == 0 {
		t.Fatalf("span census = %v", names)
	}
	// The deadline either stopped a kernel mid-batch (canceled map span) or
	// skipped queued sub-batches outright (cancel spans) — a 504 shows at
	// least one of the two.
	sawCancel := names[obs.SpanCancel] > 0
	for _, sp := range tr.Spans {
		if sp.Name == obs.SpanMapSubbatch && sp.Canceled {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatalf("504 trace shows no cancellation: %v", names)
	}
	if names[obs.SpanEmit] != 0 {
		t.Fatal("504 trace has an emit span; the response was an error body")
	}
}

// TestDeadlineStopsExtraction: the deadline is honoured before the queue. A
// 256-read request whose deadline fires during preprocessing stops
// extracting at that read, answers 504, and its trace carries a cancel
// marker from the handler (worker -1) — it was never queued, so no worker
// could have left one.
func TestDeadlineStopsExtraction(t *testing.T) {
	tracer := obs.NewReqTracer(1, 1, 8, nil)
	var extracted atomic.Int64
	ts, reg := harness(t, &fakeMapper{}, pipeline.Options{Workers: 1, BatchSize: 8, Depth: 64},
		serve.Config{Traces: tracer, Extract: func(read *dna.Read) (seeds.ReadSeeds, error) {
			extracted.Add(1)
			time.Sleep(time.Millisecond)
			return seeds.ReadSeeds{Read: *read}, nil
		}})

	id := trace.ID{Hi: 6, Lo: 1}
	resp := postMap(t, ts.URL, mapBody(t, 256), map[string]string{
		trace.TraceparentHeader: trace.Traceparent(id),
		"X-Deadline-Ms":         "10",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if n := extracted.Load(); n == 0 || n > 64 {
		t.Fatalf("%d of 256 reads preprocessed under a 10 ms deadline at 1 ms each", n)
	}
	if got := reg.Snapshot().Counters[obs.MetricServeDeadline]; got != 1 {
		t.Fatalf("serve_deadline counter = %d, want 1", got)
	}
	tr := findTrace(getTraces(t, ts.URL), id)
	if tr == nil {
		t.Fatal("504 trace not retained")
	}
	names := spanNames(tr)
	if names[obs.SpanCancel] != 1 || names[obs.SpanAdmit] != 1 || names[obs.SpanQueueWait] != 0 {
		t.Fatalf("span census = %v, want one cancel, one admit, nothing queued", names)
	}
	for _, sp := range tr.Spans {
		if sp.Name == obs.SpanCancel && sp.Worker != -1 {
			t.Fatalf("cancel span on worker %d, want the handler's -1", sp.Worker)
		}
	}
}

func TestTraceSlowReadCrossLink(t *testing.T) {
	tracer := obs.NewReqTracer(1, 4, 4, nil)
	slow := obs.NewSlowReads(2, 4)
	fm := &fakeMapper{slow: slow}
	ts, _ := harness(t, fm, pipeline.Options{Workers: 1, BatchSize: 8, Depth: 16},
		serve.Config{Traces: tracer, Slow: slow})

	id := trace.ID{Hi: 9, Lo: 9}
	resp := postMap(t, ts.URL, mapBody(t, 4), map[string]string{
		trace.TraceparentHeader: trace.Traceparent(id),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	tr := findTrace(getTraces(t, ts.URL), id)
	if tr == nil {
		t.Fatal("trace not sampled")
	}
	if len(tr.SlowReads) == 0 {
		t.Fatal("sampled trace not cross-linked to its slow-read exemplars")
	}
	for _, ex := range tr.SlowReads {
		if ex.Trace != id {
			t.Fatalf("cross-linked exemplar carries trace %v, want %v", ex.Trace, id)
		}
	}
}
