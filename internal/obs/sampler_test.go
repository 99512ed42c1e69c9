package obs

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// startTestSampler returns a sampler whose ticker never fires, so tests
// drive the timeline by calling tick directly. With archive set it writes
// run.series in a fresh directory.
func startTestSampler(t *testing.T, reg *Registry, slow *SlowReads, archive bool) (*sampler, string) {
	t.Helper()
	path := ""
	if archive {
		path = filepath.Join(t.TempDir(), "run.series")
	}
	s, err := startSampler(reg, slow, nil, path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.stop() })
	return s, path
}

// readSeries is the whole reader the format needs: decode values until the
// stream ends. A file torn mid-line yields the points before the tear and
// io.ErrUnexpectedEOF; a file that is not JSON lines yields a syntax error.
func readSeries(path string) ([]SeriesPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []SeriesPoint
	for dec := json.NewDecoder(f); ; {
		var pt SeriesPoint
		if err := dec.Decode(&pt); err == io.EOF {
			return pts, nil
		} else if err != nil {
			return pts, err
		}
		pts = append(pts, pt)
	}
}

// TestSeriesRoundTrip: every archived line decodes to exactly the Snapshot
// the registry returned at that tick — counters, gauges, bucket lists and the
// exact min/max.
func TestSeriesRoundTrip(t *testing.T) {
	reg := NewRegistry(2)
	reads := reg.Counter(MetricPipelineReads)
	inFlight := reg.Gauge(MetricPipelineInFlight)
	lat := reg.Histogram(MetricStageMap)

	s, path := startTestSampler(t, reg, nil, true)
	base := s.start

	// The runtime_* values move between a tick and a later Snapshot, so the
	// comparison is over what the test itself drives.
	type state struct {
		reads    int64
		inFlight int64
		lat      HistogramStats
	}
	var want []state
	snap := func() {
		want = append(want, state{reads.Value(), inFlight.Value(), lat.Stats()})
	}
	snap() // the baseline sample taken by startSampler

	reads.Add(0, 100)
	inFlight.Set(0, 4)
	lat.Observe(0, 2*time.Millisecond)
	s.tick(base.Add(1 * time.Second))
	snap()

	reads.Add(1, 50)
	lat.Observe(1, 3*time.Millisecond)
	lat.Observe(1, 40*time.Microsecond)
	s.tick(base.Add(2 * time.Second))
	snap()

	// A quiet tick: nothing changed, the line is written all the same.
	s.tick(base.Add(3 * time.Second))
	snap()

	inFlight.Set(0, 0)
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	snap() // stop's final sample

	got, err := readSeries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d points, want %d", len(got), len(want))
	}
	for i, w := range want {
		pt := got[i]
		// The driven ticks carry the times they were given (stop's final
		// sample is stamped with the real clock).
		if i < len(want)-1 && !pt.Time.Equal(base.Add(time.Duration(i)*time.Second)) {
			t.Errorf("point %d time = %v, want %v", i, pt.Time, base.Add(time.Duration(i)*time.Second))
		}
		if v := pt.Counters[MetricPipelineReads]; v != w.reads {
			t.Errorf("point %d reads = %d, want %d", i, v, w.reads)
		}
		if v := pt.Gauges[MetricPipelineInFlight]; v != w.inFlight {
			t.Errorf("point %d in-flight = %d, want %d", i, v, w.inFlight)
		}
		if h := pt.Histograms[MetricStageMap]; !reflect.DeepEqual(h, w.lat) {
			t.Errorf("point %d histogram = %+v, want %+v", i, h, w.lat)
		}
	}
	if h := got[2].Histograms[MetricStageMap]; h.Min != (40*time.Microsecond).Seconds() || h.Max != (3*time.Millisecond).Seconds() {
		t.Errorf("archived min/max = %g/%g, want the exact 40µs/3ms", h.Min, h.Max)
	}

	// The last line is what a scrape after the run returns, runtime_* included.
	final, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	last, err := json.Marshal(got[len(got)-1].Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if string(last) != string(final) {
		t.Errorf("final line\n%s\nis not the final snapshot\n%s", last, final)
	}

	// A second stop is a no-op reporting the same (nil) error.
	if err := s.stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestSeriesCompaction: the file never holds more than the cap, the newest
// line always survives, kept lines stay in order, and the rewrite replaces
// the file by rename.
func TestSeriesCompaction(t *testing.T) {
	reg := NewRegistry(1)
	reads := reg.Counter(MetricPipelineReads)
	const maxLines = 4
	s, path := startTestSampler(t, reg, nil, true)
	s.max = maxLines
	base := s.start
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 10*maxLines; i++ {
		reads.Add(0, 10)
		s.tick(base.Add(time.Duration(i) * time.Second))
		got, err := readSeries(path)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if len(got) > maxLines {
			t.Fatalf("tick %d: %d lines on disk, cap %d", i, len(got), maxLines)
		}
		if v := got[len(got)-1].Counters[MetricPipelineReads]; v != int64(10*i) {
			t.Fatalf("tick %d: newest line reads = %d, want %d", i, v, 10*i)
		}
		for j := 1; j < len(got); j++ {
			if !got[j].Time.After(got[j-1].Time) {
				t.Fatalf("tick %d: line %d time %v not after line %d time %v", i, j, got[j].Time, j-1, got[j-1].Time)
			}
		}
	}
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	last, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(first, last) {
		t.Error("compaction rewrote the file in place; want a new file renamed over it")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("compaction left its temporary file behind (stat: %v)", err)
	}
}

// TestSeriesTruncatedTail: a writer killed mid-line leaves a file whose
// complete lines all parse, and the reader can tell.
func TestSeriesTruncatedTail(t *testing.T) {
	reg := NewRegistry(1)
	c := reg.Counter(MetricPipelineReads)
	s, path := startTestSampler(t, reg, nil, true)
	c.Add(0, 7)
	s.tick(s.start.Add(time.Second))
	c.Add(0, 5)
	s.tick(s.start.Add(2 * time.Second))
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.series")
	if err := os.WriteFile(torn, data[:len(data)-30], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSeries(torn)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn series: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(got) != 3 {
		t.Fatalf("torn series kept %d points, want the 3 before the tear", len(got))
	}
	if v := got[1].Counters[MetricPipelineReads]; v != 7 {
		t.Errorf("point before the tear reads = %d, want 7", v)
	}
}

func TestSeriesRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.series")
	if err := os.WriteFile(bad, []byte("MGSR\x02NOTJSONLINES"), 0o644); err != nil {
		t.Fatal(err)
	}
	var syntax *json.SyntaxError
	if got, err := readSeries(bad); !errors.As(err, &syntax) || len(got) != 0 {
		t.Errorf("garbage: %d points, err = %v; want none and a syntax error", len(got), err)
	}
	if _, err := readSeries(filepath.Join(dir, "missing.series")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStartSeriesNilRegistry(t *testing.T) {
	if _, err := startSampler(nil, nil, nil, filepath.Join(t.TempDir(), "x.series"), time.Hour); err == nil {
		t.Error("nil registry archived")
	}
	var s *sampler
	if err := s.stop(); err != nil {
		t.Errorf("nil sampler stop: %v", err)
	}
}

// TestSeriesWriteErrorLatched: the first write error stops the archive and is
// what stop — and so Stack.Close — returns.
func TestSeriesWriteErrorLatched(t *testing.T) {
	st, err := Start(StackConfig{Tool: "minigiraffe", Series: filepath.Join(t.TempDir(), "run.series"), SeriesInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	st.sampler.f.Close() // the next write fails
	st.sampler.tick(time.Now())
	st.sampler.tick(time.Now())
	if err := st.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close = %v, want the latched write error", err)
	}
	if got, err := readSeries(st.cfg.Series); err != nil || len(got) != 1 {
		t.Errorf("archive after the failure: %d points, err %v; want the baseline line alone", len(got), err)
	}
}

// TestSeriesRuntimeTelemetry: every tick samples the Go runtime into
// runtime_* series, so GC behavior archives next to the pipeline's metrics.
func TestSeriesRuntimeTelemetry(t *testing.T) {
	reg := NewRegistry(1)
	s, path := startTestSampler(t, reg, nil, true)
	// Force a GC cycle between ticks so the cumulative counters have a delta
	// to report.
	runtime.GC()
	s.tick(s.start.Add(time.Second))
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}

	got, err := readSeries(path)
	if err != nil {
		t.Fatal(err)
	}
	last := got[len(got)-1]
	for _, name := range []string{MetricRuntimeGoroutines, MetricRuntimeHeapLive, MetricRuntimeHeapGoal} {
		if v := last.Gauges[name]; v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
	if v := last.Counters[MetricRuntimeGCCycles]; v < 1 {
		t.Errorf("%s = %d, want >= 1 after runtime.GC()", MetricRuntimeGCCycles, v)
	}
	if v := last.Counters[MetricRuntimeHeapAllocs]; v <= 0 {
		t.Errorf("%s = %d, want > 0", MetricRuntimeHeapAllocs, v)
	}
}

// TestSeriesRotatesSlowWindow pins the window semantics: one sampler tick is
// one exemplar window.
func TestSeriesRotatesSlowWindow(t *testing.T) {
	slow := NewSlowReads(1, 2)
	s, _ := startTestSampler(t, NewRegistry(1), slow, true)
	slow.Offer(0, Exemplar{Read: "a", TotalNanos: 10})
	s.tick(s.start.Add(time.Second))
	if got := len(slow.Window()); got != 0 {
		t.Errorf("window not rotated by the tick: %d exemplars still windowed", got)
	}
	if top := slow.Top(); len(top) != 1 || top[0].Read != "a" {
		t.Errorf("rotated exemplar missing from run view: %+v", top)
	}
}

// TestSamplerWithoutSeries: -debug-addr and -slow with no -series still get
// the whole tick — windows rotate and the runtime is sampled — not just
// /progress.
func TestSamplerWithoutSeries(t *testing.T) {
	st, err := Start(StackConfig{Tool: "giraffed", Threads: 1, DebugAddr: "127.0.0.1:0", Slow: 2, TraceK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Slow.Offer(0, Exemplar{Read: "early", TotalNanos: 10})
	st.Traces.finishDur(st.Traces.Start(tid(1), "c0"), 200, 100)
	st.sampler.tick(time.Now())
	st.sampler.tick(time.Now())

	var slow struct {
		Window []Exemplar `json:"window"`
		Run    []Exemplar `json:"run"`
	}
	getJSON(t, "http://"+st.debug.Addr()+"/slow", &slow)
	if len(slow.Window) != 0 {
		t.Errorf("/slow window still holds %+v two ticks after it was offered", slow.Window)
	}
	if len(slow.Run) != 1 || slow.Run[0].Read != "early" {
		t.Errorf("/slow run = %+v, want the exemplar offered before the first tick", slow.Run)
	}
	if n := len(st.Traces.shards[0].top.values(nil)); n != 0 {
		t.Errorf("request-trace shard still holds %d window traces; ticks must fold them", n)
	}
	if n := len(st.Traces.run.values(nil)); n != 1 {
		t.Errorf("run-level request traces = %d, want the folded one", n)
	}
	resp, err := http.Get("http://" + st.debug.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), MetricRuntimeGoroutines+" ") {
		t.Errorf("/metrics has no %s series:\n%s", MetricRuntimeGoroutines, body)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestReporterWindowedRate(t *testing.T) {
	reg := NewRegistry(1)
	s, _ := startTestSampler(t, reg, nil, false)
	reg.Counter(MetricPipelineReads).Add(0, 500)
	s.tick(s.start.Add(2 * time.Second))
	if p := s.progress(); p.Reads != 500 || p.ReadsPerSec != 250 || p.ReadsPerSecTotal != 250 || p.ElapsedSeconds != 2 {
		t.Fatalf("after 500 reads in a 2 s window: %+v", p)
	}
	// A quiet window: the windowed rate drops, the run-level one decays.
	s.tick(s.start.Add(4 * time.Second))
	if p := s.progress(); p.Reads != 500 || p.ReadsPerSec != 0 || p.ReadsPerSecTotal != 125 {
		t.Fatalf("after a quiet 2 s window: %+v", p)
	}
}

func TestReporterNilRegistry(t *testing.T) {
	s, _ := startTestSampler(t, nil, nil, false)
	s.tick(s.start.Add(time.Second))
	if p := s.progress(); p.Reads != 0 || p.ReadsPerSec != 0 || p.Timestamp.IsZero() {
		t.Fatalf("nil-registry sampler published %+v, want zeros with a timestamp", p)
	}
	var nilD *DebugServer
	if err := nilD.Close(); err != nil {
		t.Fatalf("nil DebugServer Close: %v", err)
	}
}
