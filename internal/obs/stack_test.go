package obs

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestStackLifecycle turns every sink on, records into each, and checks that
// the manifest Close writes points at all of it.
func TestStackLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := StackConfig{
		Tool:           "giraffed",
		Threads:        2,
		DebugAddr:      "127.0.0.1:0",
		Series:         filepath.Join(dir, "run.series"),
		SeriesInterval: time.Hour,
		Slow:           4,
		TraceK:         2,
		ReqTraces:      filepath.Join(dir, "reqtrace.json"),
		Profile:        filepath.Join(dir, "profiles"),
		Manifest:       filepath.Join(dir, "run-manifest.json"),
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers != 2 || s.Reg == nil || s.Slow == nil || s.Traces == nil {
		t.Fatalf("stack = workers %d, reg %v, slow %v, traces %v", s.Workers, s.Reg, s.Slow, s.Traces)
	}
	s.Reg.Counter(MetricPipelineReads).Add(0, 42)
	s.Slow.Offer(0, Exemplar{Read: "r1", TotalNanos: 900})
	s.Traces.Finish(s.Traces.Start(tid(1), "c0"), 504)
	s.Note("ran_figure4", "true")
	s.AddResult("out.csv")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(cfg.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "giraffed" || m.Notes["series"] != "run.series" || m.Notes["profiles"] != "profiles" || m.Notes["ran_figure4"] != "true" {
		t.Errorf("manifest tool %q, notes %v", m.Tool, m.Notes)
	}
	wantResults := []string{"out.csv", cfg.Series, cfg.ReqTraces}
	if len(m.Results) != len(wantResults) {
		t.Fatalf("results = %v, want %v", m.Results, wantResults)
	}
	for i, want := range wantResults {
		if m.Results[i] != want {
			t.Errorf("results[%d] = %q, want %q", i, m.Results[i], want)
		}
	}
	if len(m.SlowReads) != 1 || m.SlowReads[0].Read != "r1" {
		t.Errorf("slow reads = %+v", m.SlowReads)
	}
	if m.ReqTraces == nil || m.ReqTraces.Errors != 1 {
		t.Errorf("req_traces = %+v", m.ReqTraces)
	}
	if m.Metrics == nil || m.Metrics.Counters[MetricPipelineReads] != 42 {
		t.Errorf("final snapshot = %+v", m.Metrics)
	}
	// The archive's last line is the final sample, taken before the manifest's
	// snapshot with nothing recorded in between.
	series, err := readSeries(cfg.Series)
	if err != nil || len(series) < 2 {
		t.Fatalf("series: %d points, err %v", len(series), err)
	}
	if last := series[len(series)-1].Snapshot; !reflect.DeepEqual(&last, m.Metrics) {
		t.Errorf("series' last line = %+v, manifest's final snapshot = %+v", last, m.Metrics)
	}
	for _, name := range []string{"reqtrace.json", "profiles/cpu-0000.pb.gz", "profiles/heap-0000.pb.gz"} {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() == 0 {
			t.Errorf("%s missing or empty: %v", name, err)
		}
	}

	// A second Close writes nothing.
	if err := os.Remove(cfg.Manifest); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := os.Stat(cfg.Manifest); !os.IsNotExist(err) {
		t.Errorf("second Close rewrote the manifest (stat: %v)", err)
	}
}

// TestStackStartUnwinds fails Start at the debug listener, after the profile
// recorder has started: the process's one CPU profile must be free again.
func TestStackStartUnwinds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := t.TempDir()
	if _, err := Start(StackConfig{Tool: "minigiraffe", Profile: filepath.Join(dir, "p1"), DebugAddr: ln.Addr().String()}); err == nil {
		t.Fatal("Start bound an address that is in use")
	}
	p, err := StartProfiles(filepath.Join(dir, "p2"), time.Hour)
	if err != nil {
		t.Fatalf("the failed Start left its profile recorder running: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStackManifestOff: "" and "off" disable the manifest for every tool —
// nothing is written, and a workload is not even opened.
func TestStackManifestOff(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tool := range []string{"minigiraffe", "giraffed", "benchreport", "loadgen"} {
		for _, path := range []string{"", "off"} {
			s, err := Start(StackConfig{Tool: tool, Manifest: path})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddWorkload("gbz", "no-such-file.gbz"); err != nil {
				t.Errorf("%s -manifest %q: workload hashed with the manifest off: %v", tool, path, err)
			}
			if err := s.Close(); err != nil {
				t.Errorf("%s -manifest %q: %v", tool, path, err)
			}
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("disabled manifests left %d file(s) behind, first %q", len(entries), entries[0].Name())
	}
}
