package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"reflect"
	"strconv"
	"syscall"
	"time"

	"repro/internal/extend"
	"repro/internal/seeds"
	"repro/internal/serve"
)

const (
	// readsPerRequest is the request size of the serve workload: small
	// enough that everything around the mapping kernels dominates.
	readsPerRequest = 8
	// openLoopRate is phase B's fixed arrival rate in requests per second,
	// the issue's figure. On the sizing box phase A sustained 1 800-3 000
	// req/s, so this is a tenth to a sixth of capacity: the queue stays short
	// and latency is service time, not backlog. Every run reports the share
	// it measured as serve.open_load_share.
	openLoopRate = 300
	// serveSetupReps is how many times giraffed is spawned for setup_s.
	serveSetupReps = 5
	// closedWindows and openSegments split phase A and phase B into the
	// equal slices whose per-slice figures the estimates are taken over.
	// Twelve segments, not the issue's six: a slow spell of the shared box
	// that covers a fifth of the phase then stays outside the quartiles the
	// spread is judged by (at 300 req/s over 10 s a segment still has 25
	// requests beyond its p90).
	closedWindows = 15
	openSegments  = 12
	// requestTimeout bounds one request; a request that exceeds it failed.
	requestTimeout = 10 * time.Second
)

// requestPool is the serve workload's input: pre-encoded POST /map bodies
// and, for each, the bytes the response's "results" member must carry.
type requestPool struct {
	Bodies [][]byte `json:"bodies"`
	Tails  [][]byte `json:"tails"`
}

// resultsKey starts the part of a /map response that is a function of the
// reads alone (what precedes it carries a trace id and a service time).
var resultsKey = []byte(`"results":`)

// buildRequestPool deals the reads into requests of readsPerRequest in an
// order drawn by seed and encodes each request with its expected results,
// taken from the reference extensions. Every read is in exactly one request:
// over a whole cycle of the pool the server maps the workload's reads once
// each, so the per-read counts do not carry the variance of a sample of them
// (a pool of 1024 requests drawn with replacement spread allocs_per_read
// 0.44 % across ten seeds, most of its 1 % bound).
func buildRequestPool(recs []seeds.ReadSeeds, ref [][]extend.Extension, seed int64) (*requestPool, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(recs))
	pool := &requestPool{}
	for n := 0; n < len(recs)/readsPerRequest; n++ {
		req := serve.MapRequest{Reads: make([]serve.WireRead, readsPerRequest)}
		resp := serve.MapResponse{Results: make([]serve.WireResult, readsPerRequest)}
		for k := range req.Reads {
			i := order[n*readsPerRequest+k]
			req.Reads[k] = serve.WireRead{Name: recs[i].Read.Name, Seq: recs[i].Read.Seq.String()}
			resp.Results[k] = wireResult(recs[i].Read.Name, ref[i])
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		full, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		pool.Bodies = append(pool.Bodies, body)
		pool.Tails = append(pool.Tails, resultsTail(full))
	}
	return pool, nil
}

// wireResult renders one read's extensions as the server does.
func wireResult(name string, exts []extend.Extension) serve.WireResult {
	wes := make([]serve.WireExtension, len(exts))
	for j, e := range exts {
		strand := "+"
		if e.Rev {
			strand = "-"
		}
		wes[j] = serve.WireExtension{
			Node: uint32(e.StartPos.Node), Offset: e.StartPos.Off, Strand: strand,
			ReadStart: e.ReadStart, ReadEnd: e.ReadEnd, Score: e.Score, Mismatches: e.Mismatches,
		}
	}
	return serve.WireResult{Read: name, Extensions: wes}
}

// resultsTail cuts a response down to its "results" member onward.
func resultsTail(body []byte) []byte {
	i := bytes.Index(body, resultsKey)
	if i < 0 {
		return nil
	}
	return bytes.TrimSpace(body[i:])
}

// verify reports whether a /map response body carries request i's expected
// results: byte for byte in the common case, by decoded value when the
// encoding differs (a future encoder may order or space the bytes
// differently and still be right).
func (p *requestPool) verify(i int, body []byte) bool {
	want := p.Tails[i%len(p.Tails)]
	if bytes.Equal(resultsTail(body), want) {
		return true
	}
	var got, exp serve.MapResponse
	if json.Unmarshal(body, &got) != nil || json.Unmarshal(append([]byte("{"), want...), &exp) != nil {
		return false
	}
	return reflect.DeepEqual(got.Results, exp.Results)
}

// giraffed is one running server process.
type giraffed struct {
	cmd    *exec.Cmd
	url    string
	debug  string
	log    bytes.Buffer
	exited chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startGiraffed spawns the server with its shipped defaults plus the thread
// count and a debug address, and returns once POST /map has answered 200 —
// the point a user can first be served — with the time that took.
func startGiraffed(bin, gbzPath string, threads int, firstBody []byte) (*giraffed, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	debug, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	g := &giraffed{url: "http://" + addr, debug: "http://" + debug, exited: make(chan error, 1)}
	g.cmd = exec.Command(bin, "-gbz", gbzPath, "-addr", addr, "-threads", strconv.Itoa(threads), "-debug-addr", debug)
	g.cmd.Stdout = &g.log
	g.cmd.Stderr = &g.log
	t0 := time.Now()
	if err := g.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { g.exited <- g.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Post(g.url+"/map", "application/json", bytes.NewReader(firstBody))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters here
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, time.Since(t0), nil
			}
		}
		select {
		case werr := <-g.exited:
			return nil, 0, fmt.Errorf("giraffed exited before serving: %v\n%s", werr, g.log.String())
		default:
		}
		if time.Since(t0) > time.Minute {
			g.kill()
			return nil, 0, fmt.Errorf("giraffed did not answer /map within a minute\n%s", g.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *giraffed) kill() {
	_ = g.cmd.Process.Kill() // the process may already be gone; Wait's result is what is reported
	<-g.exited
}

// stop drains the server with SIGTERM and waits for it to exit; a server
// that does not drain within its own timeout is killed and reported.
func (g *giraffed) stop() error {
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		g.kill()
		return err
	}
	select {
	case err := <-g.exited:
		// giraffed installs its SIGTERM handler just after it starts
		// serving, so a signal sent right after its first reply (set-up
		// repetitions do that) can still find the default action. Dying of
		// the signal we sent is a stop, not a failure.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("giraffed exit: %w\n%s", err, g.log.String())
		}
		return nil
	case <-time.After(45 * time.Second):
		g.kill()
		return errors.New("giraffed did not drain within 45s of SIGTERM")
	}
}

// memStats reads the server's allocator counters from its debug endpoint.
// expvar's handler stops the world to fill them, so this is called at phase
// boundaries only.
func (g *giraffed) memStats() (mallocs, allocBytes uint64, err error) {
	resp, err := http.Get(g.debug + "/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		MemStats struct {
			Mallocs    uint64
			TotalAlloc uint64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.MemStats.Mallocs, vars.MemStats.TotalAlloc, nil
}

// mapClient sends pool requests over at most conns keep-alive connections.
type mapClient struct {
	http *http.Client
	url  string
	pool *requestPool
	ids  []string       // X-Client per connection: each stays under the per-client cap
	bufs []bytes.Buffer // response scratch per connection
}

func newMapClient(url string, pool *requestPool, conns int) *mapClient {
	c := &mapClient{
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		url:  url + "/map",
		pool: pool,
		ids:  make([]string, conns),
		bufs: make([]bytes.Buffer, conns),
	}
	for i := range c.ids {
		c.ids[i] = "bench-" + strconv.Itoa(i)
	}
	return c
}

// fetch sends request i on connection conn and returns the response body
// (valid until the connection's next request) and whether it came back 200
// with the expected results.
func (c *mapClient) fetch(conn, i int) ([]byte, bool) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.pool.Bodies[i%len(c.pool.Bodies)]))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", c.ids[conn])
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	buf := &c.bufs[conn]
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, false
	}
	return buf.Bytes(), resp.StatusCode == http.StatusOK && c.pool.verify(i, buf.Bytes())
}

func (c *mapClient) do(conn, i int) bool {
	_, ok := c.fetch(conn, i)
	return ok
}

// foldResults adds a /map response's results to a running digest in a
// canonical encoding (decoded, then encoded again), so that the digest of
// the server's responses and of the in-process replay's are equal exactly
// when the results are.
func foldResults(h hash.Hash, body []byte) error {
	var resp serve.MapResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	b, err := json.Marshal(resp.Results)
	if err != nil {
		return err
	}
	h.Write(b)
	return nil
}

// runServe measures serve_http end to end: spawn giraffed built from this
// commit, then drive it closed loop (capacity) and open loop (latency at a
// fixed arrival rate) over the same T connections.
func runServe(j *job, res *Result) error {
	var pool requestPool
	if err := readJSON(j.Inputs.Requests, &pool); err != nil {
		return err
	}
	var g *giraffed
	setups := make([]float64, 0, serveSetupReps)
	for i := 0; i < serveSetupReps; i++ {
		if g != nil {
			if err := g.stop(); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		if g, d, err = startGiraffed(j.Giraffed, j.Inputs.GBZ, j.Threads, pool.Bodies[0]); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if g != nil {
			g.kill()
		}
	}()
	res.set("setup_s", setups...)

	client := newMapClient(g.url, &pool, j.Threads)
	defer client.http.CloseIdleConnections()
	// sent is how far into the request pool the load has advanced; count
	// books a phase's samples into the checked totals.
	sent := 0
	count := func(samples []sample) (ok int64) {
		for _, s := range samples {
			if s.ok {
				ok++
			}
		}
		sent += len(samples)
		res.Attempted += int64(len(samples))
		res.Failed += int64(len(samples)) - ok
		if ok != int64(len(samples)) && res.FailNote == "" {
			res.FailNote = "a /map response was not 200 with the reference results"
		}
		return ok
	}

	// The output digest: every request of the pool once, in order, on one
	// connection. The traced replay answers the same sweep in-process.
	digest := sha256.New()
	sweep := make([]sample, len(pool.Bodies))
	for i := range pool.Bodies {
		body, ok := client.fetch(0, i)
		if ok {
			ok = foldResults(digest, body) == nil
		}
		sweep[i].ok = ok
	}
	count(sweep)
	res.OutputSHA256 = hex.EncodeToString(digest.Sum(nil))

	// Warm-up: connections open, the server's heap and caches settle.
	warm := time.Duration(j.Seconds / 10 * float64(time.Second))
	count(runClosedLoop(warm, j.Threads, sent, client.do))

	mallocs0, bytes0, err := g.memStats()
	if err != nil {
		return err
	}

	// Phase A, closed loop: T callers that each wait for their reply before
	// sending the next request. What it measures is capacity. It runs as
	// closedWindows short loops back to back (the connections stay open), so
	// that each window has its own read count, wall time and server CPU.
	window := time.Duration(j.Seconds / 3 / closedWindows * float64(time.Second))
	pid := g.cmd.Process.Pid
	var okReqs int64
	var rate, cpuUs, closedMs []float64
	for w := 0; w < closedWindows; w++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		t0 := time.Now()
		as := runClosedLoop(window, j.Threads, sent, client.do)
		wall := time.Since(t0)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		ok := count(as)
		okReqs += ok
		if ok == 0 {
			continue // every request failed; count has booked them
		}
		reads := float64(ok * readsPerRequest)
		rate = append(rate, reads/wall.Seconds())
		cpuUs = append(cpuUs, float64(cpu1-cpu0)/float64(time.Microsecond)/reads)
		for _, s := range as {
			closedMs = append(closedMs, float64(s.done-s.sent)/float64(time.Millisecond))
		}
	}
	if len(rate) == 0 {
		return errors.New("phase A: no request succeeded")
	}
	res.setSliced("reads_per_s", rate, fastQuartile(true))
	res.setSliced("cpu_us_per_read", cpuUs, fastQuartile(false))
	res.set("serve.closed_p50_ms", quantile(sortedCopy(closedMs), 0.5))
	res.set("serve.open_load_share", openLoopRate*readsPerRequest/res.Metrics["reads_per_s"].Value)

	// Phase B, open loop: independent users arriving on a Poisson schedule
	// at a fixed rate, each request timed from when it was due.
	phaseB := time.Duration(j.Seconds * 2 / 3 * float64(time.Second))
	arrivals := poissonArrivals(rand.New(rand.NewSource(j.Seed)), openLoopRate, phaseB)
	bs := runOpenLoop(arrivals, j.Threads, sent, client.do)
	okReqs += count(bs)

	mallocs1, bytes1, err := g.memStats()
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	err = g.stop()
	g = nil
	if err != nil {
		return err
	}

	segment := phaseB / openSegments
	perSegment := make([][]float64, openSegments)
	var all, lag []float64
	for _, s := range bs {
		ms := float64(s.done-s.due) / float64(time.Millisecond)
		if !s.ok {
			// A failed request misses any latency limit.
			ms = float64(requestTimeout) / float64(time.Millisecond)
		}
		if k := int(s.due / segment); k < openSegments {
			perSegment[k] = append(perSegment[k], ms)
		}
		all = append(all, ms)
		lag = append(lag, float64(s.sent-s.due)/float64(time.Millisecond))
	}
	var p50s, p90s []float64
	for _, seg := range perSegment {
		sorted := sortedCopy(seg)
		p50s = append(p50s, quantile(sorted, 0.5))
		p90s = append(p90s, quantile(sorted, 0.9))
	}
	res.set("serve.p50_ms", p50s...)
	res.set("serve.p90_ms", p90s...)
	all = sortedCopy(all)
	res.set("serve.p99_ms", quantile(all, 0.99))
	res.set("serve.max_ms", all[len(all)-1])
	if p, ok := highestResolvedPercentile(len(all)); ok {
		res.Notes = append(res.Notes, fmt.Sprintf("phase B: %d requests from due time; the highest percentile with at least ten samples beyond it is p%g = %.3f ms",
			len(all), p*100, quantile(all, p)))
	}
	res.set("serve.gen_lag_ms_p99", quantile(sortedCopy(lag), 0.99))

	reads := float64(okReqs * readsPerRequest)
	res.set("allocs_per_read", float64(mallocs1-mallocs0)/reads)
	res.set("bytes_per_read", float64(bytes1-bytes0)/reads)
	res.set("peak_rss_mb", rss)
	return nil
}
