package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Progress is the /progress payload: the live view a human (or a load
// balancer) polls during a long streaming run — overall rate, in-flight
// window, and the per-stage tail latencies that Fig. 2/3 of the paper shows
// post-hoc. Every float is finite by construction.
type Progress struct {
	Timestamp       time.Time `json:"timestamp"`
	ElapsedSeconds  float64   `json:"elapsed_seconds"`
	Reads           int64     `json:"reads"`
	Batches         int64     `json:"batches"`
	InFlightBatches int64     `json:"in_flight_batches"`
	// ReadsPerSec is the windowed rate over the last sampler interval;
	// ReadsPerSecTotal is reads over the whole elapsed time.
	ReadsPerSec      float64            `json:"reads_per_sec"`
	ReadsPerSecTotal float64            `json:"reads_per_sec_total"`
	StageP50Seconds  map[string]float64 `json:"stage_p50_seconds,omitempty"`
	StageP99Seconds  map[string]float64 `json:"stage_p99_seconds,omitempty"`
}

// DebugServer is the live observability endpoint (-debug-addr): standard Go
// pprof and expvar, a Prometheus-text scrape of the registry at /metrics,
// the sampler's latest /progress JSON, and the slow-read exemplar reservoir
// at /slow.
type DebugServer struct {
	sampler *sampler
	ln      net.Listener
	srv     *http.Server
}

// startDebugServer binds addr (":0" picks a free port) and serves in a
// background goroutine until Close. /progress is whatever sm published last.
// slow may be nil; /slow then serves an empty reservoir.
func startDebugServer(addr string, reg *Registry, slow *SlowReads, sm *sampler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{sampler: sm, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/progress", d.handleProgress)
	mux.Handle("/slow", SlowHandler(slow))
	mux.HandleFunc("/", d.handleIndex)
	d.srv = &http.Server{Handler: mux}
	go d.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// MetricsHandler serves a Prometheus-text scrape of reg: the one /metrics
// implementation, mounted by the debug endpoint and by giraffed's own mux.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func (d *DebugServer) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(d.sampler.progress()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// SlowHandler serves the exemplar reservoir — the current window's slowest
// reads and the run-level top K (nil reservoir: empty lists, k=0): the one
// /slow implementation, mounted like MetricsHandler.
func SlowHandler(slow *SlowReads) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := struct {
			K      int        `json:"k"`
			Window []Exemplar `json:"window"`
			Run    []Exemplar `json:"run"`
		}{
			K:      slow.K(),
			Window: slow.Window(),
			Run:    slow.Top(),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func (d *DebugServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h1>minigiraffe debug</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text scrape</li>
<li><a href="/progress">/progress</a> — live pipeline progress JSON</li>
<li><a href="/slow">/slow</a> — slowest-read exemplars (window + run)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiles</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar</li>
</ul></body></html>
`)
}

// Close shuts the server down.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
