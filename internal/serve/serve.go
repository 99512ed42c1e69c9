// Package serve is the mapping-as-a-service front end behind cmd/giraffed:
// an HTTP/JSON API over a pipeline.Session that loads the substrate once
// and maps read batches for many concurrent clients. It owns the
// request-scoped policies the batch binaries never needed:
//
//   - Admission control. Two bounds, both answered with 429 + Retry-After:
//     a per-client in-flight cap (one client cannot monopolise the pool)
//     and the session's shared queue depth (pipeline.ErrQueueFull).
//   - Deadlines. Every request runs under a context deadline — the
//     client's X-Deadline-Ms (or deadline_ms body field) clamped to the
//     server maximum, or the server default — which cancels queued and
//     in-flight mapping through the session; expiry surfaces as 504.
//   - Drain. EnterDrain flips /healthz to 503 and rejects new mapping
//     requests while in-flight ones finish, so a SIGTERM rollout loses no
//     accepted work.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// Config assembles a Server. Session and Extract are required.
type Config struct {
	// Session is the shared mapping pool.
	Session *pipeline.Session
	// Extract runs Giraffe's per-read preprocessing (minimizer lookup and
	// seed creation) — giraffe.Preprocess over the server's index in
	// production, a stub in tests.
	Extract func(read *dna.Read) (seeds.ReadSeeds, error)
	// Reg receives the HTTP-level metrics; may be nil.
	Reg *obs.Registry
	// Slow, when non-nil, is served at /slow.
	Slow *obs.SlowReads
	// Traces, when non-nil, tail-samples request lifecycle traces: every
	// /map request gets a span tree (admit, queue_wait, map_subbatch, emit),
	// the sampler keeps all non-2xx plus the top-K slowest 2xx, and the
	// retained traces are served at /traces.
	Traces *obs.ReqTracer
	// PerClient caps each client's in-flight requests; ≤0 means 4.
	PerClient int
	// MaxReads caps the reads per request; ≤0 means 4096.
	MaxReads int
	// DefaultDeadline applies when the client sends none; ≤0 means 10s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client deadlines; ≤0 means 60s.
	MaxDeadline time.Duration
	// RetryAfter is advertised on 429/503 responses; ≤0 means 1s.
	RetryAfter time.Duration
}

func (c Config) normalize() Config {
	if c.PerClient <= 0 {
		c.PerClient = 4
	}
	if c.MaxReads <= 0 {
		c.MaxReads = 4096
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the HTTP front end. Create with New, mount via Handler, drain
// with EnterDrain before shutting the http.Server down.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool

	mu      sync.Mutex
	clients map[string]int // in-flight requests per client id

	// traceBase seeds server-generated trace IDs (requests arriving without
	// a traceparent header): Hi is fixed non-zero per process, Lo counts.
	traceBase uint64
	traceSeq  atomic.Uint64

	// Metric handles (nil-safe when cfg.Reg is nil). HTTP handlers run on
	// net/http's goroutines, not pipeline workers, so they round-robin over
	// the registry shards instead of claiming one.
	rr            atomic.Int64
	httpRequests  *obs.Counter
	httpOK        *obs.Counter
	clientRejects *obs.Counter
	deadlineHits  *obs.Counter
	drainRejects  *obs.Counter
	badRequests   *obs.Counter
	hExtract      *obs.Histogram

	// labels are the serving-class pprof labels the extraction stage wears
	// while preprocessing on the handler goroutine, so -profile captures
	// attribute seed extraction separately from mapping.
	labels *obs.ProfLabels
}

// New validates cfg and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Session == nil {
		return nil, errors.New("serve: nil session")
	}
	if cfg.Extract == nil {
		return nil, errors.New("serve: nil extract function")
	}
	cfg = cfg.normalize()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		clients:   make(map[string]int),
		traceBase: uint64(time.Now().UnixNano()),

		httpRequests:  cfg.Reg.Counter(obs.MetricServeHTTPRequests),
		httpOK:        cfg.Reg.Counter(obs.MetricServeHTTPOK),
		clientRejects: cfg.Reg.Counter(obs.MetricServeClientRejects),
		deadlineHits:  cfg.Reg.Counter(obs.MetricServeDeadline),
		drainRejects:  cfg.Reg.Counter(obs.MetricServeDrainRejects),
		badRequests:   cfg.Reg.Counter(obs.MetricServeBadRequests),
		hExtract:      cfg.Reg.Histogram(obs.MetricServeExtract),
		labels:        obs.NewProfLabels(obs.ClassServe, 1),
	}
	s.mux.HandleFunc("POST /map", s.handleMap)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(cfg.Reg))
	s.mux.Handle("GET /slow", obs.SlowHandler(cfg.Slow))
	s.mux.HandleFunc("GET /traces", s.handleTraces)
	return s, nil
}

// Handler returns the route table, ready for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// EnterDrain rejects new mapping requests from now on (idempotent). The
// caller then lets http.Server.Shutdown wait out in-flight handlers and
// closes the session.
func (s *Server) EnterDrain() { s.draining.Store(true) }

// Draining reports whether EnterDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// MapRequest is the POST /map body.
type MapRequest struct {
	// Client identifies the submitting client for per-client admission;
	// the X-Client header takes precedence. Empty means "anon".
	Client string `json:"client,omitempty"`
	// DeadlineMs is the request's service deadline in milliseconds; the
	// X-Deadline-Ms header takes precedence. 0 means the server default.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Reads are the reads to map.
	Reads []WireRead `json:"reads"`
}

// WireRead is one read on the wire.
type WireRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
}

// MapResponse is the POST /map success body.
type MapResponse struct {
	// TraceID echoes the request's trace identity (the traceparent header's
	// trace-id field, or the server-generated one), so a client can join its
	// own latency observation to the server's /traces span tree.
	TraceID    trace.ID     `json:"trace_id"`
	Client     string       `json:"client"`
	Reads      int          `json:"reads"`
	Extensions int          `json:"extensions"`
	ServiceMs  float64      `json:"service_ms"`
	Results    []WireResult `json:"results"`
}

// WireResult is one read's mapping output.
type WireResult struct {
	Read       string          `json:"read"`
	Extensions []WireExtension `json:"extensions"`
}

// WireExtension mirrors the CSV row schema of the batch proxy (read, node,
// offset, strand, read interval, score, mismatches).
type WireExtension struct {
	Node       uint32  `json:"node"`
	Offset     int32   `json:"offset"`
	Strand     string  `json:"strand"`
	ReadStart  int32   `json:"read_start"`
	ReadEnd    int32   `json:"read_end"`
	Score      int32   `json:"score"`
	Mismatches []int32 `json:"mismatches,omitempty"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// shard picks a registry shard for this handler invocation: handlers run on
// arbitrary net/http goroutines, so spreading over shards keeps the record
// path as contention-free as the pipeline's.
func (s *Server) shard() int {
	n := s.cfg.Reg.Shards()
	if n <= 1 {
		return 0
	}
	return int(s.rr.Add(1)) % n
}

// handleMap owns the request's trace lifecycle: resolve the trace identity
// (propagated traceparent header, or a server-generated ID), open the trace,
// run the request, and hand the final status to the tail sampler — exactly
// one Finish per Start, whatever path serveMap exits through.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	sh := s.shard()
	s.httpRequests.Inc(sh)
	id, ok := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
	if !ok {
		id = trace.ID{Hi: s.traceBase, Lo: s.traceSeq.Add(1)}
	}
	w.Header().Set(trace.TraceparentHeader, trace.Traceparent(id))
	rt := s.cfg.Traces.Start(id, "")
	status := s.serveMap(w, r, sh, id, rt)
	s.cfg.Traces.Finish(rt, status)
}

// serveMap runs one mapping request and returns the HTTP status it wrote.
// The admit span covers everything up to session submission (parse, client
// and queue admission, seed extraction) and is recorded exactly once on
// every exit path; the emit span covers response construction.
func (s *Server) serveMap(w http.ResponseWriter, r *http.Request, sh int, id trace.ID, rt *obs.ReqTrace) int {
	admitStart := time.Now()
	admitDone := false
	endAdmit := func() {
		if !admitDone {
			admitDone = true
			rt.AddSpan(obs.SpanAdmit, -1, admitStart, time.Since(admitStart))
		}
	}
	defer endAdmit()
	if s.draining.Load() {
		s.drainRejects.Inc(sh)
		return s.reject(w, http.StatusServiceUnavailable, "draining")
	}
	var req MapRequest
	body := getBuf()
	if n := r.ContentLength; n > 0 {
		// MinRead more, or ReadFrom grows the buffer to see the EOF.
		body.Grow(int(min(n, maxPooledBuf)) + bytes.MinRead)
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(body.Bytes(), &req)
	}
	putBuf(body) // Unmarshal copied every string it kept
	if err != nil {
		s.badRequests.Inc(sh)
		return s.fail(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
	}
	client := req.Client
	if h := r.Header.Get("X-Client"); h != "" {
		client = h
	}
	if client == "" {
		client = "anon"
	}
	rt.SetClient(client)
	rt.SetReads(len(req.Reads))
	if len(req.Reads) == 0 {
		s.badRequests.Inc(sh)
		return s.fail(w, http.StatusBadRequest, errors.New("no reads"))
	}
	if len(req.Reads) > s.cfg.MaxReads {
		s.badRequests.Inc(sh)
		return s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d reads exceeds the %d-read request cap", len(req.Reads), s.cfg.MaxReads))
	}

	// Per-client admission: the first bound a greedy client hits.
	if !s.admitClient(client) {
		s.clientRejects.Inc(sh)
		return s.reject(w, http.StatusTooManyRequests,
			fmt.Sprintf("client %q has %d requests in flight", client, s.cfg.PerClient))
	}
	defer s.releaseClient(client)

	deadline := s.cfg.DefaultDeadline
	dms := req.DeadlineMs
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			s.badRequests.Inc(sh)
			return s.fail(w, http.StatusBadRequest, fmt.Errorf("X-Deadline-Ms: %w", err))
		}
		dms = v
	}
	if dms > 0 {
		deadline = time.Duration(dms) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Preprocess (minimizer lookup, seed creation) happens on the handler
	// goroutine: it is cheap relative to mapping and keeps the session's
	// workers on kernel work only.
	t0 := time.Now()
	s.labels.ApplyExtract()
	// Cleared explicitly right after the loop; the defer covers the
	// bad-request early returns inside it (Clear is idempotent).
	defer s.labels.Clear()
	recs := make([]seeds.ReadSeeds, len(req.Reads))
	for i, wr := range req.Reads {
		// The deadline covers extraction too: a request that expires here
		// stops at this read, not after preprocessing all of them.
		if err := ctx.Err(); err != nil {
			rt.AddSpan(obs.SpanCancel, -1, time.Now(), 0)
			return s.failCanceled(w, sh, err, deadline)
		}
		seq, err := dna.Parse(wr.Seq)
		if err != nil {
			s.badRequests.Inc(sh)
			return s.fail(w, http.StatusBadRequest, fmt.Errorf("read %q: %w", wr.Name, err))
		}
		rec, err := s.cfg.Extract(&dna.Read{Name: wr.Name, Seq: seq, Fragment: -1})
		if err != nil {
			s.badRequests.Inc(sh)
			return s.fail(w, http.StatusBadRequest, fmt.Errorf("read %q: %w", wr.Name, err))
		}
		recs[i] = rec
	}
	s.hExtract.Observe(sh, time.Since(t0))
	// The handler goroutine belongs to net/http's pool: clear the stage
	// label so it doesn't bleed into response encoding or the next request.
	s.labels.Clear()

	endAdmit()
	exts, err := s.cfg.Session.SubmitTraced(ctx, recs, rt)
	switch {
	case err == nil:
	case errors.Is(err, pipeline.ErrQueueFull):
		return s.reject(w, http.StatusTooManyRequests, "mapping queue full")
	case errors.Is(err, pipeline.ErrSessionClosed):
		s.drainRejects.Inc(sh)
		return s.reject(w, http.StatusServiceUnavailable, "draining")
	default:
		return s.failCanceled(w, sh, err, deadline)
	}

	emitStart := time.Now()
	resp := MapResponse{
		TraceID:   id,
		Client:    client,
		Reads:     len(recs),
		ServiceMs: float64(time.Since(t0)) / float64(time.Millisecond),
		Results:   make([]WireResult, len(recs)),
	}
	for i := range recs {
		wes := make([]WireExtension, len(exts[i]))
		for j, e := range exts[i] {
			strand := "+"
			if e.Rev {
				strand = "-"
			}
			wes[j] = WireExtension{
				Node:       uint32(e.StartPos.Node),
				Offset:     e.StartPos.Off,
				Strand:     strand,
				ReadStart:  e.ReadStart,
				ReadEnd:    e.ReadEnd,
				Score:      e.Score,
				Mismatches: e.Mismatches,
			}
		}
		resp.Results[i] = WireResult{Read: recs[i].Read.Name, Extensions: wes}
		resp.Extensions += len(wes)
	}
	s.httpOK.Inc(sh)
	s.writeJSON(w, http.StatusOK, resp)
	rt.AddSpan(obs.SpanEmit, -1, emitStart, time.Since(emitStart))
	return http.StatusOK
}

// admitClient reserves an in-flight slot for the client, false when the
// per-client bound is reached.
func (s *Server) admitClient(client string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[client] >= s.cfg.PerClient {
		return false
	}
	s.clients[client]++
	return true
}

func (s *Server) releaseClient(client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[client]--; s.clients[client] <= 0 {
		delete(s.clients, client)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleStats serves the merged metric snapshot plus uptime — the serving
// analogue of the batch binaries' stderr summary line.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	payload := struct {
		UptimeSeconds float64       `json:"uptime_seconds"`
		Draining      bool          `json:"draining"`
		Metrics       *obs.Snapshot `json:"metrics,omitempty"`
	}{
		UptimeSeconds: obs.SanitizeFloat(time.Since(s.start).Seconds()),
		Draining:      s.draining.Load(),
		Metrics:       s.cfg.Reg.Snapshot(),
	}
	s.writeJSON(w, http.StatusOK, payload)
}

// handleTraces serves the tail sampler's retained traces, each cross-linked
// to the slow-read exemplars its sub-batches produced (matched by trace ID
// over the reservoir's window and run views), so one payload answers both
// "where did this request's time go" and "which reads made it slow".
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	snap := s.cfg.Traces.Snapshot()
	if s.cfg.Slow != nil && len(snap.Traces) > 0 {
		byID := make(map[trace.ID][]obs.Exemplar)
		seen := make(map[int]bool) // Top duplicates Window entries; Index is unique per read
		for _, ex := range append(s.cfg.Slow.Top(), s.cfg.Slow.Window()...) {
			if ex.Trace.IsZero() || seen[ex.Index] {
				continue
			}
			seen[ex.Index] = true
			byID[ex.Trace] = append(byID[ex.Trace], ex)
		}
		for i := range snap.Traces {
			snap.Traces[i].SlowReads = byID[snap.Traces[i].TraceID]
		}
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// reject answers an admission or drain rejection, with Retry-After so
// well-behaved clients back off. Returns the status so serveMap exits can
// report what they wrote.
func (s *Server) reject(w http.ResponseWriter, status int, msg string) int {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	s.writeJSON(w, status, errorBody{Error: msg})
	return status
}

// failCanceled answers a request whose context ended before its results
// were complete: 504 when the deadline fired, 503 (best effort — the client
// went away) for any other cancellation.
func (s *Server) failCanceled(w http.ResponseWriter, sh int, err error, deadline time.Duration) int {
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineHits.Inc(sh)
		return s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("deadline %v exceeded", deadline))
	}
	return s.fail(w, http.StatusServiceUnavailable, err)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) int {
	s.writeJSON(w, status, errorBody{Error: err.Error()})
	return status
}

// writeJSON encodes v into a pooled buffer and writes it once.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf := getBuf()
	// The response is already committed: on an encoding or write error
	// there is nothing left to do (a failed Encode leaves the body empty).
	_ = json.NewEncoder(buf).Encode(v)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

// maxBody bounds a /map request body.
const maxBody = 64 << 20

// maxPooledBuf is the largest buffer kept between requests, and the most a
// Content-Length header is trusted to pre-size one: a rare huge body must
// not pin its buffer in the pool, and a header alone must not cost more.
const maxPooledBuf = 1 << 20

// bufs holds the request-body and response buffers of the JSON handlers.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufs.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufs.Put(b)
	}
}

// retryAfterSeconds renders d for the Retry-After header (integer seconds,
// minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
