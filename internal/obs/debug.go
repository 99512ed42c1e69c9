package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
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
	// ReadsPerSec is the windowed rate over the last reporter interval;
	// ReadsPerSecTotal is reads over the whole elapsed time.
	ReadsPerSec      float64            `json:"reads_per_sec"`
	ReadsPerSecTotal float64            `json:"reads_per_sec_total"`
	StageP50Seconds  map[string]float64 `json:"stage_p50_seconds,omitempty"`
	StageP99Seconds  map[string]float64 `json:"stage_p99_seconds,omitempty"`
}

// Reporter is the periodic goroutine behind /progress: every interval it
// scrapes the registry, derives the windowed read rate from the delta since
// the previous tick, and publishes the result. Nil-safe: a Reporter over a
// nil registry publishes zeros.
type Reporter struct {
	reg      *Registry
	interval time.Duration
	start    time.Time

	mu        sync.Mutex
	latest    Progress
	lastReads int64
	lastTick  time.Time

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

// StartReporter launches the reporter goroutine. interval ≤0 defaults to
// one second. Stop it with Stop.
func StartReporter(reg *Registry, interval time.Duration) *Reporter {
	if interval <= 0 {
		interval = time.Second
	}
	now := time.Now()
	r := &Reporter{
		reg:      reg,
		interval: interval,
		start:    now,
		lastTick: now,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.sample()
	//vetgiraffe:ignore nakedgoroutine loop exits via r.quit and signals r.done; Stop closes and waits
	go r.loop()
	return r
}

func (r *Reporter) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.sample()
		case <-r.quit:
			return
		}
	}
}

// sample scrapes the registry and publishes a fresh Progress.
func (r *Reporter) sample() {
	now := time.Now()
	s := r.reg.Snapshot()
	p := Progress{Timestamp: now}
	r.mu.Lock()
	defer r.mu.Unlock()
	p.ElapsedSeconds = SanitizeFloat(now.Sub(r.start).Seconds())
	if s != nil {
		p.Reads = s.Counters[MetricPipelineReads]
		p.Batches = s.Counters[MetricPipelineBatches]
		p.InFlightBatches = s.Gauges[MetricPipelineInFlight]
		p.ReadsPerSec = Rate(float64(p.Reads-r.lastReads), now.Sub(r.lastTick))
		p.ReadsPerSecTotal = Rate(float64(p.Reads), now.Sub(r.start))
		if len(s.Histograms) > 0 {
			p.StageP50Seconds = make(map[string]float64, len(s.Histograms))
			p.StageP99Seconds = make(map[string]float64, len(s.Histograms))
			for name, h := range s.Histograms {
				p.StageP50Seconds[name] = h.P50
				p.StageP99Seconds[name] = h.P99
			}
		}
	}
	r.lastReads = p.Reads
	r.lastTick = now
	r.latest = p
}

// Progress returns the most recently published sample.
func (r *Reporter) Progress() Progress {
	if r == nil {
		return Progress{Timestamp: time.Now()}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest
}

// Stop terminates the reporter goroutine and waits for it to exit.
// Idempotent: extra calls (a deferred Close after an explicit one) are no-ops.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.quit) })
	<-r.done
}

// DebugServer is the live observability endpoint (-debug-addr): standard Go
// pprof and expvar, a Prometheus-text scrape of the registry at /metrics,
// the reporter-driven /progress JSON, and the slow-read exemplar reservoir
// at /slow.
type DebugServer struct {
	reporter *Reporter
	ln       net.Listener
	srv      *http.Server
}

// StartDebugServer binds addr (":0" picks a free port), starts the
// progress reporter at the given interval, and serves in a background
// goroutine until Close. slow may be nil; /slow then serves an empty
// reservoir.
func StartDebugServer(addr string, reg *Registry, slow *SlowReads, interval time.Duration) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
		reporter: StartReporter(reg, interval),
		ln:       ln,
	}
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
	//vetgiraffe:ignore nakedgoroutine Serve returns when Close shuts the listener down
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
	if err := enc.Encode(d.reporter.Progress()); err != nil {
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

// Close stops the reporter and shuts the server down.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	d.reporter.Stop()
	return d.srv.Close()
}
