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
	// production, a stub in tests. The server hands every call the same
	// *dna.Read, rewritten per read: Extract copies it into the record it
	// returns (as Preprocess does) and keeps no pointer to it. The bases it
	// points at live until the request is done with its records.
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
//
// The request lives in one pooled reqScratch. It goes back to the pool from
// the single deferred call below, on every exit but one: when SubmitTraced
// returns a context error the session's workers may still be reading
// sc.recs and the bases behind them (they finish or skip the request's
// sub-batches on their own), so that scratch is left to the GC.
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
	// Per-client admission is the first bound a greedy client hits. A client
	// named in the header is checked before its body is read, so a request
	// over the cap costs a map lookup, not a read and a decode; one named in
	// the body cannot be known that early.
	client := r.Header.Get("X-Client")
	inHeader := client != ""
	if inHeader {
		rt.SetClient(client)
		if !s.admitClient(client) {
			return s.rejectClient(w, sh, client)
		}
		defer s.releaseClient(client)
	}

	sc := getScratch()
	workersMayHold := false
	defer func() {
		if !workersMayHold {
			putScratch(sc)
		}
	}()
	if n := r.ContentLength; n > 0 {
		// MinRead more, or ReadFrom grows the buffer to see the EOF.
		sc.body.Grow(int(min(n, maxPooledBuf)) + bytes.MinRead)
	}
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		s.badRequests.Inc(sh)
		return s.fail(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
	}
	if err := sc.decode(s.cfg.MaxReads); err != nil {
		s.badRequests.Inc(sh)
		switch err {
		case errTooManyReads:
			return s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("more than the %d reads one request may carry", s.cfg.MaxReads))
		case errNoReads:
		case errBadBase:
			err = fmt.Errorf("read #%d: %w: %q at offset %d of the body", len(sc.reads), err, sc.src[sc.pos], sc.pos)
		default:
			err = fmt.Errorf("parsing request: %w at offset %d", err, sc.pos)
		}
		return s.fail(w, http.StatusBadRequest, err)
	}
	// One string holds the client and every read name: what outlives the
	// request (trace headers, slow-read exemplars) keeps that, not the arena.
	text := string(sc.text)
	if !inHeader {
		if client = text[sc.clientLo:sc.clientHi]; client == "" {
			client = "anon"
		}
		rt.SetClient(client)
		if !s.admitClient(client) {
			return s.rejectClient(w, sh, client)
		}
		defer s.releaseClient(client)
	}
	rt.SetReads(len(sc.reads))

	deadline := s.cfg.DefaultDeadline
	dms := sc.deadlineMs
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
	for _, sp := range sc.reads {
		// The deadline covers extraction too: a request that expires here
		// stops at this read, not after preprocessing all of them.
		if err := ctx.Err(); err != nil {
			rt.AddSpan(obs.SpanCancel, -1, time.Now(), 0)
			return s.failCanceled(w, sh, err, deadline)
		}
		// Extract copies the read into its record, so one Read serves them
		// all; the bases stay in the arena, capped so that nothing appends
		// into the next read's.
		sc.read = dna.Read{Name: text[sp.nameLo:sp.nameHi], Seq: sc.bases[sp.seqLo:sp.seqHi:sp.seqHi], Fragment: -1}
		rec, err := s.cfg.Extract(&sc.read)
		if err != nil {
			s.badRequests.Inc(sh)
			return s.fail(w, http.StatusBadRequest, fmt.Errorf("read %q: %w", sc.read.Name, err))
		}
		sc.recs = append(sc.recs, rec)
	}
	s.hExtract.Observe(sh, time.Since(t0))
	// The handler goroutine belongs to net/http's pool: clear the stage
	// label so it doesn't bleed into response encoding or the next request.
	s.labels.Clear()

	endAdmit()
	exts, err := s.cfg.Session.SubmitTraced(ctx, sc.recs, rt)
	switch {
	case err == nil:
	case errors.Is(err, pipeline.ErrQueueFull):
		return s.reject(w, http.StatusTooManyRequests, "mapping queue full")
	case errors.Is(err, pipeline.ErrSessionClosed):
		s.drainRejects.Inc(sh)
		return s.reject(w, http.StatusServiceUnavailable, "draining")
	default:
		workersMayHold = true
		return s.failCanceled(w, sh, err, deadline)
	}

	emitStart := time.Now()
	serviceMs := float64(time.Since(t0)) / float64(time.Millisecond)
	sc.out = appendMapResponse(sc.out[:0], id, client, serviceMs, sc.recs, exts)
	s.httpOK.Inc(sh)
	sendJSON(w, http.StatusOK, sc.out)
	rt.AddSpan(obs.SpanEmit, -1, emitStart, time.Since(emitStart))
	return http.StatusOK
}

// rejectClient answers a request of a client at its in-flight cap.
func (s *Server) rejectClient(w http.ResponseWriter, sh int, client string) int {
	s.clientRejects.Inc(sh)
	return s.reject(w, http.StatusTooManyRequests,
		fmt.Sprintf("client %q has %d requests in flight", client, s.cfg.PerClient))
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

// writeJSON answers with v encoded by encoding/json — every JSON body but the
// /map success one. The body is encoded before the status is committed, so a
// value that cannot be encoded is a 500 saying so, not an empty 200.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	sc := getScratch()
	defer putScratch(sc) // never submitted: no worker has seen it
	buf := bytes.NewBuffer(sc.out[:0])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	sc.out = buf.Bytes()
	sendJSON(w, status, sc.out)
}

// sendJSON commits status and writes the encoded body.
func sendJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client went away: nothing left to tell it
}

// maxBody bounds a /map request body.
const maxBody = 64 << 20

// maxPooledBuf is the largest buffer kept between requests, and the most a
// Content-Length header is trusted to pre-size one: a rare huge body must
// not pin its buffers in the pool, and a header alone must not cost more.
const maxPooledBuf = 1 << 20

// reqScratch is the arena of one /map request: everything the request needs
// for its own duration and nothing that may outlive it. The body is read into
// body; decode leaves the unescaped client and read names in text, the bases
// of every read in bases and one span per read in reads; the handler turns
// each span into a record of recs through read, the one dna.Read it hands
// Config.Extract; out takes the encoded response. recs[i].Read.Seq points
// into bases, which is why a scratch must not be reused while a session
// worker can still hold recs — see serveMap. The names are not in the arena:
// they are substrings of one string made from text, because traces and
// slow-read exemplars keep them.
type reqScratch struct {
	body  bytes.Buffer
	text  []byte
	bases []dna.Base
	reads []readSpan
	recs  []seeds.ReadSeeds
	read  dna.Read
	out   []byte

	// The decoder's cursor over body, and what it found besides the reads.
	src                []byte
	pos                int
	clientLo, clientHi int // in text
	deadlineMs         int64
}

// scratches holds the arenas of the JSON handlers between requests.
var scratches = sync.Pool{New: func() any { return new(reqScratch) }}

func getScratch() *reqScratch { return scratches.Get().(*reqScratch) }

// putScratch returns sc to the pool, emptied and without the references to
// GC-owned memory (names, seeds) the records held. The caller guarantees that
// no other goroutine can reach sc any more.
func putScratch(sc *reqScratch) {
	if max(sc.body.Cap(), cap(sc.text), cap(sc.bases), cap(sc.out)) > maxPooledBuf {
		return
	}
	sc.body.Reset()
	clear(sc.recs)
	sc.recs = sc.recs[:0]
	sc.read = dna.Read{}
	scratches.Put(sc)
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
