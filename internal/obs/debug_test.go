package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry(2)
	reg.Counter(MetricPipelineReads).Add(0, 1200)
	reg.Counter(MetricPipelineBatches).Add(1, 3)
	reg.Gauge(MetricPipelineInFlight).Set(0, 2)
	reg.Histogram(MetricStageMap).Observe(0, 4*time.Millisecond)

	slow := NewSlowReads(2, 4)
	slow.Offer(0, Exemplar{Read: "r1", Index: 7, Seeds: 3, TotalNanos: 900})

	sm, _ := startTestSampler(t, reg, nil, false)
	d, err := startDebugServer("127.0.0.1:0", reg, slow, sm)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE " + MetricPipelineReads + " counter",
		MetricPipelineReads + " 1200",
		MetricPipelineInFlight + " 2",
		"# TYPE " + MetricStageMap + " histogram",
		MetricStageMap + `_bucket{le="+Inf"} 1`,
		MetricStageMap + "_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	progress, ctype := get("/progress")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/progress Content-Type = %q", ctype)
	}
	var p Progress
	if err := json.Unmarshal([]byte(progress), &p); err != nil {
		t.Fatalf("/progress is not valid JSON: %v\n%s", err, progress)
	}
	// The sampler took its baseline at startup, after the counters above.
	if p.Reads != 1200 || p.Batches != 3 || p.InFlightBatches != 2 {
		t.Errorf("/progress = %+v, want reads 1200, batches 3, in-flight 2", p)
	}
	if p.StageP50Seconds[MetricStageMap] <= 0 {
		t.Errorf("/progress stage p50 for %s = %g, want > 0", MetricStageMap, p.StageP50Seconds[MetricStageMap])
	}

	vars, _ := get("/debug/vars")
	if !json.Valid([]byte(vars)) {
		t.Errorf("/debug/vars is not valid JSON:\n%s", vars)
	}

	slowBody, ctype := get("/slow")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/slow Content-Type = %q", ctype)
	}
	var slowPayload struct {
		K      int        `json:"k"`
		Window []Exemplar `json:"window"`
		Run    []Exemplar `json:"run"`
	}
	if err := json.Unmarshal([]byte(slowBody), &slowPayload); err != nil {
		t.Fatalf("/slow is not valid JSON: %v\n%s", err, slowBody)
	}
	if slowPayload.K != 4 || len(slowPayload.Window) != 1 || slowPayload.Window[0].Read != "r1" {
		t.Errorf("/slow = %+v, want k=4 and the offered exemplar in the window", slowPayload)
	}

	index, _ := get("/")
	for _, link := range []string{"/metrics", "/progress", "/slow", "/debug/pprof/", "/debug/vars"} {
		if !strings.Contains(index, link) {
			t.Errorf("index page missing link to %s", link)
		}
	}

	resp, err := http.Get(base + "/no-such-page")
	if err != nil {
		t.Fatalf("GET unknown path: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}

	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After Close the listener must be gone.
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}
