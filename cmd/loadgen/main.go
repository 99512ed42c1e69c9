// Command loadgen is the open-loop traffic harness for cmd/giraffed,
// modeled on ReqBench-style serving benchmarks: requests fire on a
// precomputed arrival schedule at the target RPS — never gated on earlier
// responses, so a slow server accumulates outstanding requests exactly as
// real traffic would — and the report gives service-latency quantiles
// (p50/p99/p999, measured client-side per request) plus the error mix.
//
// Arrival shapes: const (steady RPS), ramp (0 → RPS linearly over the
// duration), burst (square wave alternating 2×RPS and 0 each second).
// Client identity is zipf-skewed over -clients synthetic clients, so
// per-client admission control sees a realistic heavy-hitter mix.
//
// Reads are drawn round-robin from a FASTQ file (genworkload's .fq output
// works directly) in batches of -batch per request. Counters and client-side
// latency histograms are recorded under loadgen_* with the common
// observability flags (README "Observability"), so a loadgen run leaves the
// same manifest and series a mapping run does.
//
// The -assert-* flags turn the harness into a CI gate (make serve-smoke):
// the exit status is non-zero when an assertion fails.
//
// Usage:
//
//	loadgen -url http://localhost:8765 -fastq A-human.fq \
//	    -rps 50 -duration 15s -batch 16 -clients 32 -zipf 1.2 \
//	    -deadline 2s -report loadgen.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	// Client-side counters are the harness's output: the registry is always on.
	cfg := obs.StackConfig{Tool: "loadgen", Flags: flag.CommandLine, Obs: true}
	url := flag.String("url", "http://localhost:8765", "giraffed base URL")
	fastqPath := flag.String("fastq", "", "FASTQ file the request batches are drawn from (required)")
	rps := flag.Float64("rps", 10, "target request rate per second")
	duration := flag.Duration("duration", 15*time.Second, "generation window")
	shape := flag.String("shape", "const", "arrival shape: const, ramp, burst")
	batch := flag.Int("batch", 16, "reads per request")
	clients := flag.Int("clients", 16, "synthetic client population")
	zipfS := flag.Float64("zipf", 1.2, "zipf skew of the client mix (>1; 0 = uniform)")
	seed := flag.Int64("seed", 1, "client-mix RNG seed")
	deadline := flag.Duration("deadline", 2*time.Second, "per-request service deadline sent to the server (0 = server default)")
	timeout := flag.Duration("timeout", 0, "client-side HTTP timeout (0 = deadline + 5s)")
	waitReady := flag.Duration("wait-ready", 0, "poll /healthz for up to this long before generating")
	report := flag.String("report", "", "write the JSON latency/error report here (default stdout)")
	flag.StringVar(&cfg.Manifest, "manifest", "", "write a run manifest JSON here")
	flag.StringVar(&cfg.Series, "series", "", "archive a client-side metric time-series here")
	flag.DurationVar(&cfg.SeriesInterval, "series-interval", obs.DefaultSeriesInterval, "series self-scrape interval")
	assertMin2xx := flag.Int64("assert-min-2xx", -1, "fail unless at least this many 2xx responses")
	assertMin429 := flag.Int64("assert-min-429", -1, "fail unless at least this many 429 rejections")
	assertMinTimeout := flag.Int64("assert-min-timeout", -1, "fail unless at least this many deadline timeouts (504 or client-side)")
	assertMaxP99 := flag.Duration("assert-max-p99", 0, "fail when the 2xx p99 service latency exceeds this (0 = no bound)")
	assertMaxQueueP99 := flag.Duration("assert-max-queue-p99", 0, "fail when the server-attributed queue-wait p99 exceeds this (0 = no bound)")
	flag.Parse()
	if *fastqPath == "" || *rps <= 0 || *batch <= 0 || *clients <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	reads, err := fastq.ReadFile(*fastqPath)
	if err != nil {
		log.Fatal(err)
	}
	if len(reads) == 0 {
		log.Fatal("no reads in ", *fastqPath)
	}

	stack, err := obs.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reg := stack.Reg

	cto := *timeout
	if cto <= 0 {
		cto = *deadline + 5*time.Second
	}
	g := &generator{
		url:      *url,
		reads:    reads,
		batch:    *batch,
		deadline: *deadline,
		client:   &http.Client{Timeout: cto},
		sent:     reg.Counter(obs.MetricLoadgenSent),
		ok:       reg.Counter(obs.MetricLoadgenOK),
		rejected: reg.Counter(obs.MetricLoadgenRejected),
		timeouts: reg.Counter(obs.MetricLoadgenTimeout),
		errs:     reg.Counter(obs.MetricLoadgenErrors),
		hLatency: reg.Histogram(obs.MetricLoadgenLatency),
		statuses: make(map[int]int64),
	}

	if *waitReady > 0 {
		if err := waitHealthy(g.client, *url, *waitReady); err != nil {
			log.Fatal(err)
		}
	}

	// Client mix: zipf-skewed ids over the synthetic population, drawn once
	// per request on the arrival goroutine.
	rng := rand.New(rand.NewSource(*seed))
	var zipf *rand.Zipf
	if *zipfS > 0 && *clients > 1 {
		s := *zipfS
		if s <= 1 {
			s = 1.01 // rand.Zipf requires s > 1
		}
		zipf = rand.NewZipf(rng, s, 1, uint64(*clients-1))
	}
	nextClient := func() string {
		if zipf == nil {
			return fmt.Sprintf("c%d", rng.Intn(*clients))
		}
		return fmt.Sprintf("c%d", zipf.Uint64())
	}

	arrivals := schedule(*shape, *rps, *duration)
	log.Printf("open loop: %d requests over %v (%s @ %.1f rps, %d reads each, %d clients)",
		len(arrivals), *duration, *shape, *rps, *batch, *clients)

	// Every request carries a traceparent header with a generator-owned
	// trace ID, so the server's tail-sampled /traces can be joined back to
	// this run (and only this run) afterwards.
	idBase := uint64(time.Now().UnixNano()) | 1
	ownIDs := make(map[trace.ID]bool, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	next := 0
	seq := uint64(0)
	for _, at := range arrivals {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		seq++
		id := trace.ID{Hi: idBase, Lo: seq}
		ownIDs[id] = true
		wg.Add(1)
		go g.fire(&wg, nextClient(), next, id)
		next += *batch
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := g.buildReport(*shape, *rps, elapsed)
	rep.Server = serverDecomp(g.client, *url, ownIDs)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if *report != "" {
		if err := os.WriteFile(*report, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *report)
	} else {
		fmt.Println(string(out))
	}
	log.Printf("sent %d: %d ok, %d rejected (429), %d timeouts, %d errors; p50 %.1fms p99 %.1fms p999 %.1fms",
		rep.Sent, rep.OK, rep.Rejected, rep.Timeouts, rep.Errors,
		rep.P50Ms, rep.P99Ms, rep.P999Ms)
	if err := stack.AddWorkload("fastq", *fastqPath); err != nil {
		log.Fatal(err)
	}
	if *report != "" {
		stack.AddResult(*report)
	}
	if err := stack.Close(); err != nil {
		log.Fatal(err)
	}

	failed := false
	check := func(name string, got int64, min int64) {
		if min >= 0 && got < min {
			log.Printf("ASSERT FAILED: %s = %d, want >= %d", name, got, min)
			failed = true
		}
	}
	check("2xx", rep.OK, *assertMin2xx)
	check("429", rep.Rejected, *assertMin429)
	check("timeouts", rep.Timeouts, *assertMinTimeout)
	if *assertMaxP99 > 0 && rep.OK > 0 && rep.P99Ms > float64(*assertMaxP99)/float64(time.Millisecond) {
		log.Printf("ASSERT FAILED: p99 = %.1fms, want <= %v", rep.P99Ms, *assertMaxP99)
		failed = true
	}
	if *assertMaxQueueP99 > 0 {
		switch {
		case rep.Server == nil:
			log.Printf("ASSERT FAILED: -assert-max-queue-p99 set but the server exposed no queue-wait attribution")
			failed = true
		case rep.Server.QueueWaitP99Ms > float64(*assertMaxQueueP99)/float64(time.Millisecond):
			log.Printf("ASSERT FAILED: server queue-wait p99 = %.1fms (%s), want <= %v",
				rep.Server.QueueWaitP99Ms, rep.Server.QueueWaitSource, *assertMaxQueueP99)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// generator owns the shared request state and result accounting.
type generator struct {
	url      string
	reads    []dna.Read
	batch    int
	deadline time.Duration
	client   *http.Client

	sent, ok, rejected, timeouts, errs *obs.Counter
	hLatency                           *obs.Histogram

	mu        sync.Mutex
	latencies []time.Duration // 2xx service latencies, client-side
	statuses  map[int]int64
}

// fire sends one request (called on its own goroutine: open loop).
func (g *generator) fire(wg *sync.WaitGroup, client string, offset int, id trace.ID) {
	defer wg.Done()
	g.sent.Inc(0)
	body := g.body(offset)
	req, err := http.NewRequest(http.MethodPost, g.url+"/map", bytes.NewReader(body))
	if err != nil {
		g.record(0, 0, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", client)
	req.Header.Set(trace.TraceparentHeader, trace.Traceparent(id))
	if g.deadline > 0 {
		req.Header.Set("X-Deadline-Ms", fmt.Sprint(int64(g.deadline/time.Millisecond)))
	}
	t0 := time.Now()
	resp, err := g.client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		g.record(lat, 0, err)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	g.record(lat, resp.StatusCode, nil)
}

// body renders the request batch starting at read offset (wrapping).
func (g *generator) body(offset int) []byte {
	mr := serve.MapRequest{Reads: make([]serve.WireRead, g.batch)}
	for i := 0; i < g.batch; i++ {
		r := &g.reads[(offset+i)%len(g.reads)]
		mr.Reads[i] = serve.WireRead{Name: r.Name, Seq: r.Seq.String()}
	}
	b, err := json.Marshal(mr)
	if err != nil {
		panic(err) // request shape is fully under our control
	}
	return b
}

// record accounts one completed request.
func (g *generator) record(lat time.Duration, status int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case err != nil:
		// A client-side timeout is the open-loop view of a blown deadline.
		if os.IsTimeout(err) {
			g.timeouts.Inc(0)
			g.statuses[-1]++
		} else {
			g.errs.Inc(0)
			g.statuses[0]++
		}
	case status >= 200 && status < 300:
		g.ok.Inc(0)
		g.hLatency.Observe(0, lat)
		g.latencies = append(g.latencies, lat)
		g.statuses[status]++
	case status == http.StatusTooManyRequests:
		g.rejected.Inc(0)
		g.statuses[status]++
	case status == http.StatusGatewayTimeout:
		g.timeouts.Inc(0)
		g.statuses[status]++
	default:
		g.errs.Inc(0)
		g.statuses[status]++
	}
}

// Report is the JSON artifact serve-smoke uploads: the client-side view of
// one serving run.
type Report struct {
	Shape          string           `json:"shape"`
	TargetRPS      float64          `json:"target_rps"`
	AchievedRPS    float64          `json:"achieved_rps"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Sent           int64            `json:"sent"`
	OK             int64            `json:"ok"`
	Rejected       int64            `json:"rejected_429"`
	Timeouts       int64            `json:"timeouts"`
	Errors         int64            `json:"errors"`
	StatusMix      map[string]int64 `json:"status_mix"`
	MeanMs         float64          `json:"mean_ms"`
	P50Ms          float64          `json:"p50_ms"`
	P90Ms          float64          `json:"p90_ms"`
	P99Ms          float64          `json:"p99_ms"`
	P999Ms         float64          `json:"p999_ms"`
	MaxMs          float64          `json:"max_ms"`
	// Server is the server-attributed latency decomposition, read back from
	// the tail-sampled /traces (nil when the server samples no traces for
	// this run): where sampled requests' time went — queue wait vs map
	// service — per status class.
	Server *ServerDecomp `json:"server,omitempty"`
}

// ServerDecomp splits sampled requests' server-side time into queue wait
// (sub-batches parked in the session claim queue) and map service (kernel
// time on workers), per status class. Sampling is tail-based — every non-2xx
// plus the slowest 2xx — so the 2xx rows describe the latency tail, not the
// mean request.
type ServerDecomp struct {
	TracesSampled int `json:"traces_sampled"`
	// QueueWaitP99Ms is the gate the -assert-max-queue-p99 flag checks:
	// p99 of per-request queue wait over this run's sampled traces, falling
	// back to the server's serve_queue_wait_seconds histogram p99 (per
	// sub-batch, whole server lifetime) when no traces matched.
	QueueWaitP99Ms  float64                `json:"queue_wait_p99_ms"`
	QueueWaitSource string                 `json:"queue_wait_source"`
	ByClass         map[string]ClassDecomp `json:"by_class,omitempty"`
}

// ClassDecomp is one status class's decomposition over sampled traces.
type ClassDecomp struct {
	Traces          int     `json:"traces"`
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms"`
	QueueWaitP99Ms  float64 `json:"queue_wait_p99_ms"`
	MapMeanMs       float64 `json:"map_mean_ms"`
	MapP99Ms        float64 `json:"map_p99_ms"`
}

// classKey buckets a status the same way the server's trace summary does.
func classKey(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status == 429:
		return "429"
	case status == 504:
		return "504"
	default:
		return "other"
	}
}

// serverDecomp reads the server's sampled traces and keeps the ones this run
// generated (matched by trace ID), decomposing each into queue-wait and
// map-service time from its spans. Best-effort: a server without /traces
// (older build, tracing disabled) yields nil rather than an error — except
// that the histogram fallback still reports a queue-wait p99 when the
// endpoint exists but sampled none of ours.
func serverDecomp(c *http.Client, url string, own map[trace.ID]bool) *ServerDecomp {
	resp, err := c.Get(url + "/traces")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap obs.ReqTraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}

	type perClass struct{ queue, mapped []float64 }
	classes := make(map[string]*perClass)
	var allQueue []float64
	matched := 0
	for _, tr := range snap.Traces {
		if !own[tr.TraceID] {
			continue
		}
		matched++
		var qw, ms float64
		for _, sp := range tr.Spans {
			switch sp.Name {
			case obs.SpanQueueWait:
				qw += float64(sp.DurNanos) / 1e6
			case obs.SpanMapSubbatch:
				ms += float64(sp.DurNanos) / 1e6
			}
		}
		key := classKey(tr.Status)
		pc := classes[key]
		if pc == nil {
			pc = &perClass{}
			classes[key] = pc
		}
		pc.queue = append(pc.queue, qw)
		pc.mapped = append(pc.mapped, ms)
		allQueue = append(allQueue, qw)
	}

	d := &ServerDecomp{TracesSampled: matched, ByClass: make(map[string]ClassDecomp)}
	if matched > 0 {
		d.QueueWaitSource = "traces"
		d.QueueWaitP99Ms = quantileMs(allQueue, 0.99)
		for key, pc := range classes {
			d.ByClass[key] = ClassDecomp{
				Traces:          len(pc.queue),
				QueueWaitMeanMs: meanMs(pc.queue),
				QueueWaitP99Ms:  quantileMs(pc.queue, 0.99),
				MapMeanMs:       meanMs(pc.mapped),
				MapP99Ms:        quantileMs(pc.mapped, 0.99),
			}
		}
		return d
	}
	// Nothing of ours sampled (all-fast 2xx runs lose the reservoir race to
	// other phases): fall back to the server's queue-wait histogram so the
	// CI gate still has a signal. Per sub-batch and lifetime-wide, hence the
	// explicit source marker.
	statsResp, err := c.Get(url + "/stats")
	if err != nil {
		return nil
	}
	defer statsResp.Body.Close()
	var stats struct {
		Metrics *obs.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil || stats.Metrics == nil {
		return nil
	}
	h, ok := stats.Metrics.Histograms[obs.MetricServeQueueWait]
	if !ok {
		return nil
	}
	d.QueueWaitSource = "histogram"
	d.QueueWaitP99Ms = h.P99 * 1e3
	return d
}

// meanMs averages a millisecond sample set (0 when empty).
func meanMs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return obs.SanitizeFloat(sum / float64(len(xs)))
}

// quantile is the nearest-rank p-quantile of ascending, non-empty samples:
// the smallest one with at least p·n of the n at or below it, sorted[⌈p·n⌉−1].
// Flooring p·(n−1) instead would report the second-slowest of 48 requests as
// their p99.
func quantile[T any](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantileMs is quantile over an unsorted millisecond sample set.
func quantileMs(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return obs.SanitizeFloat(quantile(sorted, p))
}

func (g *generator) buildReport(shape string, rps float64, elapsed time.Duration) *Report {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := &Report{
		Shape:          shape,
		TargetRPS:      rps,
		ElapsedSeconds: obs.SanitizeFloat(elapsed.Seconds()),
		Sent:           g.sent.Value(),
		OK:             g.ok.Value(),
		Rejected:       g.rejected.Value(),
		Timeouts:       g.timeouts.Value(),
		Errors:         g.errs.Value(),
		StatusMix:      make(map[string]int64, len(g.statuses)),
	}
	rep.AchievedRPS = obs.Rate(float64(rep.Sent), elapsed)
	for status, n := range g.statuses {
		key := fmt.Sprintf("%d", status)
		switch status {
		case -1:
			key = "client_timeout"
		case 0:
			key = "transport_error"
		}
		rep.StatusMix[key] = n
	}
	if len(g.latencies) > 0 {
		sort.Slice(g.latencies, func(i, j int) bool { return g.latencies[i] < g.latencies[j] })
		var sum time.Duration
		for _, l := range g.latencies {
			sum += l
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		q := func(p float64) float64 { return ms(quantile(g.latencies, p)) }
		rep.MeanMs = ms(sum / time.Duration(len(g.latencies)))
		rep.P50Ms = q(0.50)
		rep.P90Ms = q(0.90)
		rep.P99Ms = q(0.99)
		rep.P999Ms = q(0.999)
		rep.MaxMs = ms(g.latencies[len(g.latencies)-1])
	}
	return rep
}

// schedule precomputes the arrival offsets for the shape — the open-loop
// plan is fixed before the first request fires, so server slowdown cannot
// throttle the generator.
func schedule(shape string, rps float64, duration time.Duration) []time.Duration {
	var out []time.Duration
	switch shape {
	case "const":
		period := time.Duration(float64(time.Second) / rps)
		for at := time.Duration(0); at < duration; at += period {
			out = append(out, at)
		}
	case "ramp":
		// Rate grows linearly 0 → rps: arrival density integrates to
		// rps/2 × duration requests, spaced by the inverse rate.
		at := time.Duration(float64(time.Second) / rps) // skip the t=0 singularity
		for at < duration {
			out = append(out, at)
			frac := float64(at) / float64(duration)
			rate := rps * frac
			if rate < 1e-3 {
				rate = 1e-3
			}
			at += time.Duration(float64(time.Second) / rate)
		}
	case "burst":
		// Square wave: 2×rps for one second, silent the next.
		period := time.Duration(float64(time.Second) / (2 * rps))
		for at := time.Duration(0); at < duration; at += period {
			if (at/time.Second)%2 == 0 {
				out = append(out, at)
			}
		}
	default:
		log.Fatalf("unknown shape %q (const, ramp, burst)", shape)
	}
	return out
}

// waitHealthy polls /healthz until it answers 200, the readiness hand-off
// that lets serve-smoke boot giraffed in the background without sleeps.
func waitHealthy(c *http.Client, url string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %v", url, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
