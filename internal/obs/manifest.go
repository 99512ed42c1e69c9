package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"time"
)

// Manifest is the run record emitted next to every result file: enough to
// answer "what produced this artifact" without re-running — the exact
// binary invocation, the environment, content hashes of the inputs, and the
// final metric snapshot. The paper's methodology (§VI) depends on knowing
// precisely which configuration produced each figure; the manifest makes
// that machine-checkable for our artifacts.
type Manifest struct {
	Tool           string            `json:"tool"`
	Args           []string          `json:"args"`
	Flags          map[string]string `json:"flags,omitempty"`
	GoVersion      string            `json:"go_version"`
	GOOS           string            `json:"goos"`
	GOARCH         string            `json:"goarch"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	NumCPU         int               `json:"num_cpu"`
	Hostname       string            `json:"hostname,omitempty"`
	Start          time.Time         `json:"start"`
	End            time.Time         `json:"end"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Workloads      []WorkloadFile    `json:"workloads,omitempty"`
	Results        []string          `json:"results,omitempty"`
	Notes          map[string]string `json:"notes,omitempty"`
	Metrics        *Snapshot         `json:"metrics,omitempty"`
	// SlowReads archives the run-level slowest-read exemplars (slowest
	// first), so a tail-latency regression comes with the reads that caused
	// it.
	SlowReads []Exemplar `json:"slow_reads,omitempty"`
	// ReqTraces summarises the request-trace tail sampler's run: retained
	// counts, status mix, and the slowest sampled request's trace ID — the
	// pointer into the full /traces or Perfetto artifact.
	ReqTraces *ReqTraceSummary `json:"req_traces,omitempty"`
}

// WorkloadFile identifies one input by content: runs over different inputs
// can never be confused even when the file paths match.
type WorkloadFile struct {
	Label  string `json:"label"`
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// NewManifest starts a manifest for the named tool, capturing the
// invocation and environment now and the start timestamp.
func NewManifest(tool string) *Manifest {
	host, _ := os.Hostname()
	return &Manifest{
		Tool:       tool,
		Args:       append([]string(nil), os.Args...),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Hostname:   host,
		Start:      time.Now(),
		Flags:      make(map[string]string),
		Notes:      make(map[string]string),
	}
}

// AddFlagSet records every flag's effective value (defaults included), so
// the manifest reflects the resolved configuration, not just what was typed.
func (m *Manifest) AddFlagSet(fs *flag.FlagSet) {
	fs.VisitAll(func(f *flag.Flag) {
		m.Flags[f.Name] = f.Value.String()
	})
}

// AddWorkload hashes the input file at path and records it under label.
func (m *Manifest) AddWorkload(label, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return err
	}
	m.Workloads = append(m.Workloads, WorkloadFile{
		Label:  label,
		Path:   path,
		Bytes:  n,
		SHA256: hex.EncodeToString(h.Sum(nil)),
	})
	return nil
}

// AddResult records an artifact path this run produced.
func (m *Manifest) AddResult(path string) {
	m.Results = append(m.Results, path)
}

// AddSlowReads archives the reservoir's run-level top K (nil or empty
// reservoir: no section).
func (m *Manifest) AddSlowReads(s *SlowReads) {
	m.SlowReads = s.Top()
}

// AddReqTraces archives the request-trace sampler's summary (nil tracer: no
// section).
func (m *Manifest) AddReqTraces(t *ReqTracer) {
	m.ReqTraces = t.Summary()
}

// Finish stamps the end time and attaches the registry's final metric
// snapshot (nil registry: no metrics section).
func (m *Manifest) Finish(reg *Registry) {
	m.End = time.Now()
	m.ElapsedSeconds = SanitizeFloat(m.End.Sub(m.Start).Seconds())
	m.Metrics = reg.Snapshot()
}

// sanitize scrubs every float field so the manifest always marshals:
// encoding/json rejects NaN/Inf, and a rate computed over a zero-length run
// must not be able to lose the whole manifest.
func (m *Manifest) sanitize() {
	m.ElapsedSeconds = SanitizeFloat(m.ElapsedSeconds)
	if m.Metrics == nil {
		return
	}
	for name, h := range m.Metrics.Histograms {
		h.SumSeconds = SanitizeFloat(h.SumSeconds)
		h.Mean = SanitizeFloat(h.Mean)
		h.P50 = SanitizeFloat(h.P50)
		h.P90 = SanitizeFloat(h.P90)
		h.P99 = SanitizeFloat(h.P99)
		h.Min = SanitizeFloat(h.Min)
		h.Max = SanitizeFloat(h.Max)
		m.Metrics.Histograms[name] = h
	}
}

// Encode marshals the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	m.sanitize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Write saves the manifest to path.
func (m *Manifest) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
