package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/vgraph"
)

// fakeMapper maps each record to one extension whose node encodes the
// record's global index, after an optional per-record delay and an optional
// gate on batch entry, honouring the stop flag as core.Mapper does.
type fakeMapper struct {
	delay time.Duration
	gate  chan struct{}
	// slow, when set, receives one exemplar per mapped record carrying the
	// sub-batch's trace ID, mimicking core.Mapper's slow-read attribution.
	slow *obs.SlowReads
}

func (f *fakeMapper) MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (gbwt.CacheStats, int) {
	if f.gate != nil {
		<-f.gate
	}
	mapped := 0
	for j := range recs {
		if stop != nil && stop.Load() {
			break
		}
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		out[j] = []extend.Extension{{StartPos: vgraph.Position{Node: vgraph.NodeID(base + j)}, Score: 7}}
		if f.slow != nil && sb != nil {
			f.slow.Offer(worker, obs.Exemplar{
				Read: recs[j].Read.Name, Index: base + j, Worker: worker,
				TotalNanos: int64(base + j + 1), Trace: sb.Trace,
			})
		}
		mapped++
	}
	return gbwt.CacheStats{}, mapped
}

// harness builds a server over a fake-mapper session and an identity
// extractor, returning the test server and the registry for counter
// assertions.
func harness(t *testing.T, fm *fakeMapper, popts pipeline.Options, cfg serve.Config) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(4)
	sess, err := pipeline.NewSession(fm, popts, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	cfg.Session = sess
	cfg.Reg = reg
	if cfg.Extract == nil {
		cfg.Extract = func(read *dna.Read) (seeds.ReadSeeds, error) {
			return seeds.ReadSeeds{Read: *read}, nil
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func mapBody(t *testing.T, n int) []byte {
	t.Helper()
	req := serve.MapRequest{Reads: make([]serve.WireRead, n)}
	for i := range req.Reads {
		req.Reads[i] = serve.WireRead{Name: fmt.Sprintf("r%d", i), Seq: "ACGTACGT"}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postMap(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/map", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMapOK(t *testing.T) {
	ts, _ := harness(t, &fakeMapper{}, pipeline.Options{Workers: 2, BatchSize: 4, Depth: 16}, serve.Config{})
	resp := postMap(t, ts.URL, mapBody(t, 10), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var mr serve.MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Reads != 10 || len(mr.Results) != 10 {
		t.Fatalf("reads=%d results=%d, want 10/10", mr.Reads, len(mr.Results))
	}
	for i, res := range mr.Results {
		if res.Read != fmt.Sprintf("r%d", i) {
			t.Fatalf("result %d is read %q — responses must preserve request order", i, res.Read)
		}
		if len(res.Extensions) != 1 || res.Extensions[0].Score != 7 {
			t.Fatalf("result %d: unexpected extensions %+v", i, res.Extensions)
		}
	}
	if mr.Extensions != 10 {
		t.Errorf("extension total %d, want 10", mr.Extensions)
	}
}

// TestMapOrderedUnderConcurrency drives many clients concurrently and
// checks every response's results are in that request's order (the fake
// encodes the global record index, which must be contiguous per request).
func TestMapOrderedUnderConcurrency(t *testing.T) {
	ts, _ := harness(t, &fakeMapper{}, pipeline.Options{Workers: 4, BatchSize: 3, Depth: 256}, serve.Config{PerClient: 64})
	const clients, perClient, reads = 6, 10, 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				resp := postMap(t, ts.URL, mapBody(t, reads), map[string]string{"X-Client": fmt.Sprintf("c%d", c)})
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				var mr serve.MapResponse
				if err := json.Unmarshal(raw, &mr); err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				first := mr.Results[0].Extensions[0].Node
				for i, res := range mr.Results {
					if res.Read != fmt.Sprintf("r%d", i) {
						errCh <- fmt.Errorf("result %d is read %q", i, res.Read)
						return
					}
					if res.Extensions[0].Node != first+uint32(i) {
						errCh <- fmt.Errorf("result %d: node %d, want %d (out of order)", i, res.Extensions[0].Node, first+uint32(i))
						return
					}
				}
				// The bytes on the wire are encoding/json's for the results
				// this request must have, whatever else was in flight.
				want := make([]serve.WireResult, reads)
				for i := range want {
					want[i] = serve.WireResult{Read: fmt.Sprintf("r%d", i), Extensions: []serve.WireExtension{
						{Node: first + uint32(i), Strand: "+", Score: 7},
					}}
				}
				tail, err := json.Marshal(want)
				if err != nil {
					errCh <- err
					return
				}
				if tail = append(append([]byte(`"results":`), tail...), "}\n"...); !bytes.HasSuffix(raw, tail) {
					errCh <- fmt.Errorf("response %s does not end in %s", raw, tail)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPerClientAdmission: a client at its in-flight cap gets 429 with
// Retry-After while another client is still admitted.
func TestPerClientAdmission(t *testing.T) {
	fm := &fakeMapper{gate: make(chan struct{})}
	ts, reg := harness(t, fm, pipeline.Options{Workers: 1, BatchSize: 4, Depth: 16}, serve.Config{PerClient: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postMap(t, ts.URL, mapBody(t, 4), map[string]string{"X-Client": "greedy"})
		resp.Body.Close()
	}()
	waitFor(t, func() bool { return reg.Counter(obs.MetricSchedClaims).Value() == 1 })

	resp := postMap(t, ts.URL, mapBody(t, 4), map[string]string{"X-Client": "greedy"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second in-flight request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := reg.Counter(obs.MetricServeClientRejects).Value(); got != 1 {
		t.Errorf("serve_client_rejects_total = %d, want 1", got)
	}

	// A client named in the header is refused before its body is touched: over
	// the cap it costs a map lookup, not a read and a decode.
	req := httptest.NewRequest(http.MethodPost, "/map", unreadable{t})
	req.Header.Set("X-Client", "greedy")
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap request with an unread body: status %d, want 429", rec.Code)
	}
	// One named only in the body is still refused, after the decode that
	// finds the name.
	named, err := json.Marshal(serve.MapRequest{Client: "greedy", Reads: []serve.WireRead{{Name: "r", Seq: "ACGT"}}})
	if err != nil {
		t.Fatal(err)
	}
	resp = postMap(t, ts.URL, named, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request named in the body: status %d, want 429", resp.StatusCode)
	}
	if got := reg.Counter(obs.MetricServeClientRejects).Value(); got != 3 {
		t.Errorf("serve_client_rejects_total = %d, want 3", got)
	}
	close(fm.gate)
	wg.Wait()
}

// unreadable is a request body that must not be read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("the body of a request refused on its header was read")
	return 0, io.EOF
}

// TestQueueFullAdmission: with the worker parked and the session queue
// packed, a fresh client's request is rejected 429 by the shared bound.
func TestQueueFullAdmission(t *testing.T) {
	fm := &fakeMapper{gate: make(chan struct{})}
	ts, reg := harness(t, fm, pipeline.Options{Workers: 1, BatchSize: 4, Depth: 1}, serve.Config{PerClient: 8})

	var wg sync.WaitGroup
	post := func(client string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postMap(t, ts.URL, mapBody(t, 4), map[string]string{"X-Client": client})
			resp.Body.Close()
		}()
	}
	post("a") // parks on the gated worker
	waitFor(t, func() bool { return reg.Counter(obs.MetricSchedClaims).Value() == 1 })
	post("b") // fills the depth-1 queue
	waitFor(t, func() bool { return reg.Gauge(obs.MetricServeQueueDepth).Value() >= 1 })

	resp := postMap(t, ts.URL, mapBody(t, 4), map[string]string{"X-Client": "c"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: status %d, want 429", resp.StatusCode)
	}
	if got := reg.Counter(obs.MetricServeQueueRejects).Value(); got != 1 {
		t.Errorf("serve_queue_rejects_total = %d, want 1", got)
	}
	close(fm.gate)
	wg.Wait()
}

// TestDeadline: a request whose deadline cannot be met gets 504, and the
// cancellation is visible in the session's canceled counters — the mapper
// really stopped.
func TestDeadline(t *testing.T) {
	fm := &fakeMapper{delay: 2 * time.Millisecond}
	ts, reg := harness(t, fm, pipeline.Options{Workers: 1, BatchSize: 8, Depth: 64}, serve.Config{})

	resp := postMap(t, ts.URL, mapBody(t, 256), map[string]string{"X-Deadline-Ms": "20"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("impossible deadline: status %d, want 504", resp.StatusCode)
	}
	waitFor(t, func() bool {
		snap := reg.Snapshot()
		return snap.Counters[obs.MetricServeDeadline] == 1 &&
			snap.Counters[obs.MetricServeCanceledReads] > 0 &&
			snap.Gauges[obs.MetricServeQueueDepth] == 0
	})
}

// TestDrain: after EnterDrain, /map and /healthz answer 503 while /stats
// stays up; in-flight requests complete.
func TestDrain(t *testing.T) {
	fm := &fakeMapper{gate: make(chan struct{})}
	reg := obs.NewRegistry(4)
	sess, err := pipeline.NewSession(fm, pipeline.Options{Workers: 1, BatchSize: 4, Depth: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv, err := serve.New(serve.Config{
		Session: sess,
		Reg:     reg,
		Extract: func(read *dna.Read) (seeds.ReadSeeds, error) { return seeds.ReadSeeds{Read: *read}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	inFlightStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp := postMap(t, ts.URL, mapBody(t, 4), nil)
		resp.Body.Close()
		inFlightStatus <- resp.StatusCode
	}()
	waitFor(t, func() bool { return reg.Counter(obs.MetricSchedClaims).Value() == 1 })

	srv.EnterDrain()
	resp := postMap(t, ts.URL, mapBody(t, 4), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/map while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: status %d, want 503", hresp.StatusCode)
	}
	if got := reg.Counter(obs.MetricServeDrainRejects).Value(); got == 0 {
		t.Error("serve_drain_rejects_total = 0, want > 0")
	}

	close(fm.gate)
	wg.Wait()
	if got := <-inFlightStatus; got != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200 (drain must not drop accepted work)", got)
	}
}

func TestBadRequests(t *testing.T) {
	ts, reg := harness(t, &fakeMapper{}, pipeline.Options{Workers: 1, BatchSize: 4, Depth: 16}, serve.Config{MaxReads: 8})
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"not json", []byte("{"), http.StatusBadRequest},
		{"no reads", []byte(`{"reads":[]}`), http.StatusBadRequest},
		{"too many reads", mapBody(t, 9), http.StatusRequestEntityTooLarge},
		// Refused at the ninth read: what follows it is never looked at.
		{"too many reads, then garbage", append(bytes.TrimSuffix(mapBody(t, 9), []byte("]}")), ",{{{"...), http.StatusRequestEntityTooLarge},
		{"garbage before the cap", append(bytes.TrimSuffix(mapBody(t, 8), []byte("]}")), "{{{"...), http.StatusBadRequest},
		{"bad base", []byte(`{"reads":[{"name":"r","seq":"AXGT"}]}`), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postMap(t, ts.URL, tc.body, nil)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	if got := reg.Counter(obs.MetricServeBadRequests).Value(); got != 6 {
		t.Errorf("serve_bad_requests_total = %d, want 6", got)
	}
}

// lateMapper parks every batch at its gate and only then looks at the records
// it was handed — a worker that is still on a request after the handler gave
// up on it. Record g of the session (its global index) must still be the one
// lateRead(g) sent.
type lateMapper struct {
	gate        chan struct{}
	seen, wrong atomic.Int64
}

func (m *lateMapper) MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (gbwt.CacheStats, int) {
	<-m.gate
	for j := range recs {
		if want := lateRead(base + j); recs[j].Read.Name != want.Name || recs[j].Read.Seq.String() != want.Seq {
			m.wrong.Add(1)
		}
		m.seen.Add(1)
	}
	return gbwt.CacheStats{}, 0
}

// lateRead is the g-th read the scratch test sends: no two alike, and of
// different lengths, so an arena written again never looks the same.
func lateRead(g int) serve.WireRead {
	return serve.WireRead{Name: fmt.Sprintf("late-%d", g*g), Seq: strings.Repeat("ACGT"[g%4:]+"GATTACA", 1+g%5)}
}

func lateBody(t *testing.T, first, n int) []byte {
	t.Helper()
	req := serve.MapRequest{Reads: make([]serve.WireRead, n)}
	for i := range req.Reads {
		req.Reads[i] = lateRead(first + i)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScratchNotRecycledUnderWorkers pins the arena's one lifetime rule. Four
// requests are claimed by workers that stall before reading them, and are then
// abandoned by their handlers (context done: the exit a 504 takes too). Their
// arenas must not go back to the pool: 64 further requests decode into whatever
// the pool hands out, and when the workers finally look, every record must
// still be the one its own request sent.
func TestScratchNotRecycledUnderWorkers(t *testing.T) {
	const held, reads, followers = 4, 8, 64
	lm := &lateMapper{gate: make(chan struct{})}
	reg := obs.NewRegistry(held)
	sess, err := pipeline.NewSession(lm, pipeline.Options{Workers: held, BatchSize: reads, Depth: held + followers}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv, err := serve.New(serve.Config{
		Session: sess, Reg: reg, PerClient: held + followers,
		Extract: func(read *dna.Read) (seeds.ReadSeeds, error) { return seeds.ReadSeeds{Read: *read}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context, body []byte, deadlineMs string) int {
		req := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("X-Deadline-Ms", deadlineMs)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	}

	// One at a time, so that request k holds the session's reads k*8..k*8+7.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for k := 0; k < held; k++ {
		body := lateBody(t, k*reads, reads)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := post(ctx, body, "60000"); code != http.StatusServiceUnavailable {
				t.Errorf("abandoned request %d: status %d, want 503", k, code)
			}
		}()
		waitFor(t, func() bool { return reg.Counter(obs.MetricSchedClaims).Value() == int64(k+1) })
	}
	cancel()
	if !waitWithin(&wg, 10*time.Second) {
		close(lm.gate)
		t.Fatal("abandoned requests still running 10s after their contexts were canceled")
	}

	// The followers queue behind the stalled workers and time out; each has
	// decoded into an arena by then, from several goroutines so that they
	// draw from every P's share of the pool.
	for f := 0; f < 4; f++ {
		body := lateBody(t, 1000+f, reads)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < followers/4; i++ {
				if code := post(context.Background(), body, "1"); code != http.StatusGatewayTimeout {
					t.Errorf("follower: status %d, want 504", code)
				}
			}
		}()
	}
	if !waitWithin(&wg, 10*time.Second) {
		close(lm.gate)
		t.Fatal("1 ms-deadline requests still running after 10s")
	}

	close(lm.gate)
	waitFor(t, func() bool { return lm.seen.Load() == held*reads })
	if n := lm.wrong.Load(); n != 0 {
		t.Fatalf("%d of %d records changed under a worker that still held them", n, held*reads)
	}
}

// TestEndpoints smoke-checks the observability surface.
func TestEndpoints(t *testing.T) {
	ts, _ := harness(t, &fakeMapper{}, pipeline.Options{Workers: 1, BatchSize: 4, Depth: 16}, serve.Config{})
	resp := postMap(t, ts.URL, mapBody(t, 4), nil)
	resp.Body.Close()
	for _, path := range []string{"/healthz", "/stats", "/metrics", "/slow"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// waitWithin waits for wg for at most d and reports whether it finished.
func waitWithin(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
