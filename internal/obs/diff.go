package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file compares two recorded runs — manifest plus optional archived
// series — and renders a markdown perf report with a machine-readable
// verdict. cmd/obsdiff wraps it: two runs recorded on the same machine are
// diffed, and the verdict trips when throughput drops or tail latency rises
// past the noise thresholds.

// RunData is one loaded run: the manifest (required) and the archived series
// (optional — older runs and crashed runs may not have one).
type RunData struct {
	Path     string
	Manifest *Manifest
	Series   *Series
}

// LoadRun loads a run from a manifest file or a directory containing one.
// A directory is searched for run-manifest.json, then for a single
// *manifest*.json. The series file is resolved from the manifest's
// Notes["series"] basename next to the manifest, falling back to a single
// *.series file in the same directory; a missing series is not an error.
func LoadRun(path string) (*RunData, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	manifestPath := path
	if info.IsDir() {
		manifestPath, err = findManifest(path)
		if err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("obs: manifest %s: %w", manifestPath, err)
	}
	run := &RunData{Path: manifestPath, Manifest: &man}
	dir := filepath.Dir(manifestPath)
	var seriesPath string
	if name := man.Notes["series"]; name != "" {
		p := filepath.Join(dir, filepath.Base(name))
		if _, err := os.Stat(p); err == nil {
			seriesPath = p
		}
	}
	if seriesPath == "" {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.series"))
		if len(matches) == 1 {
			seriesPath = matches[0]
		}
	}
	if seriesPath != "" {
		s, err := LoadSeries(seriesPath)
		if err != nil {
			return nil, err
		}
		run.Series = s
	}
	return run, nil
}

// findManifest locates the manifest inside a run directory.
func findManifest(dir string) (string, error) {
	p := filepath.Join(dir, "run-manifest.json")
	if _, err := os.Stat(p); err == nil {
		return p, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*manifest*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 1 {
		return matches[0], nil
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("obs: no manifest in %s", dir)
	}
	return "", fmt.Errorf("obs: %d manifests in %s, pass the file explicitly", len(matches), dir)
}

// DiffOptions are the regression thresholds. The defaults absorb normal
// run-to-run noise on a quiet machine; CI widens them further because the
// baseline was recorded on different hardware.
type DiffOptions struct {
	// P99Rise is the fractional p99 increase that counts as a regression
	// (0.25 = +25%). The log2 histogram quantizes p99 to powers of two, so
	// values below 1.0 effectively flag "moved up a bucket".
	P99Rise float64
	// ThroughputDrop is the fractional reads/s decrease that counts as a
	// regression (0.15 = -15%).
	ThroughputDrop float64
	// MinCount exempts histograms with fewer observations in either run
	// (quantiles of tiny samples are noise).
	MinCount int64
	// MinP99Seconds exempts p99s below this absolute floor in the candidate;
	// a 2µs→4µs bucket hop is not a regression worth failing CI over.
	MinP99Seconds float64
}

// DefaultDiffOptions returns the single-machine defaults.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{
		P99Rise:        0.25,
		ThroughputDrop: 0.15,
		MinCount:       100,
		MinP99Seconds:  1e-4,
	}
}

// DiffRow is one metric's comparison.
type DiffRow struct {
	Name      string
	Base      float64
	Cand      float64
	Delta     float64 // fractional change, candidate vs baseline
	Gated     bool    // participates in the regression verdict
	Regressed bool
	Note      string
}

// DiffReport is the full comparison.
type DiffReport struct {
	Baseline, Candidate *RunData
	Opts                DiffOptions
	// Throughput rows are reads (or items) per second from *_total counters
	// over manifest elapsed time; only the pipeline read counter is gated.
	Throughput []DiffRow
	// Latency rows compare histogram p99s; Base/Cand are seconds.
	Latency []DiffRow
	// Gauges compare final gauge levels (absolute values, not rates) —
	// informational, never gated: levels like queue depth or the runtime_*
	// telemetry (heap live/goal, GC pause p99) are workload-shaped, so the
	// report shows the drift and a human judges it. Gauges present in both
	// runs align here rather than landing in Added/Removed.
	Gauges []DiffRow
	// Added and Removed list metrics present in only one run — reported, not
	// failed, so instrumentation changes don't block CI.
	Added, Removed []string
}

// Regressed reports whether any gated row breached its threshold.
func (r *DiffReport) Regressed() bool {
	for _, row := range r.Throughput {
		if row.Regressed {
			return true
		}
	}
	for _, row := range r.Latency {
		if row.Regressed {
			return true
		}
	}
	return false
}

// Diff aligns the two runs by metric name and computes the comparison.
func Diff(base, cand *RunData, opts DiffOptions) *DiffReport {
	if opts.P99Rise <= 0 {
		opts.P99Rise = DefaultDiffOptions().P99Rise
	}
	if opts.ThroughputDrop <= 0 {
		opts.ThroughputDrop = DefaultDiffOptions().ThroughputDrop
	}
	if opts.MinCount <= 0 {
		opts.MinCount = DefaultDiffOptions().MinCount
	}
	if opts.MinP99Seconds <= 0 {
		opts.MinP99Seconds = DefaultDiffOptions().MinP99Seconds
	}
	r := &DiffReport{Baseline: base, Candidate: cand, Opts: opts}

	bm, cm := snapshotOf(base), snapshotOf(cand)

	// Throughput from cumulative counters over elapsed wall time.
	for _, name := range unionNames(bm.Counters, cm.Counters) {
		bv, bok := bm.Counters[name]
		cv, cok := cm.Counters[name]
		switch {
		case bok && !cok:
			r.Removed = append(r.Removed, name)
			continue
		case cok && !bok:
			r.Added = append(r.Added, name)
			continue
		}
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		row := DiffRow{
			Name: name,
			Base: Rate(float64(bv), elapsedOf(base)),
			Cand: Rate(float64(cv), elapsedOf(cand)),
		}
		if row.Base > 0 {
			row.Delta = SanitizeFloat(row.Cand/row.Base - 1)
		}
		if name == MetricPipelineReads {
			row.Gated = true
			row.Regressed = row.Base > 0 && row.Delta < -opts.ThroughputDrop
		}
		r.Throughput = append(r.Throughput, row)
	}

	// Steady-state read rate from the archived series (middle half of the
	// samples, dodging warm-up and drain), informational.
	if row, ok := steadyRate(base, cand); ok {
		r.Throughput = append(r.Throughput, row)
	}

	// Gauge levels (runtime_* telemetry and pipeline levels), informational.
	for _, name := range unionNames(bm.Gauges, cm.Gauges) {
		bv, bok := bm.Gauges[name]
		cv, cok := cm.Gauges[name]
		switch {
		case bok && !cok:
			r.Removed = append(r.Removed, name)
			continue
		case cok && !bok:
			r.Added = append(r.Added, name)
			continue
		}
		row := DiffRow{Name: name, Base: float64(bv), Cand: float64(cv)}
		if bv != 0 {
			row.Delta = SanitizeFloat(row.Cand/row.Base - 1)
		}
		r.Gauges = append(r.Gauges, row)
	}

	// Tail latency per histogram.
	for _, name := range unionNames(bm.Histograms, cm.Histograms) {
		bh, bok := bm.Histograms[name]
		ch, cok := cm.Histograms[name]
		switch {
		case bok && !cok:
			r.Removed = append(r.Removed, name)
			continue
		case cok && !bok:
			r.Added = append(r.Added, name)
			continue
		}
		row := DiffRow{Name: name, Base: bh.P99, Cand: ch.P99, Gated: true}
		if bh.P99 > 0 {
			row.Delta = SanitizeFloat(ch.P99/bh.P99 - 1)
		}
		switch {
		case bh.Count < opts.MinCount || ch.Count < opts.MinCount:
			row.Gated = false
			row.Note = fmt.Sprintf("n/a: counts %d/%d below %d", bh.Count, ch.Count, opts.MinCount)
		case ch.P99 <= opts.MinP99Seconds:
			row.Note = fmt.Sprintf("below %.0fµs floor", opts.MinP99Seconds*1e6)
		case bh.P99 > 0 && row.Delta > opts.P99Rise:
			row.Regressed = true
		}
		r.Latency = append(r.Latency, row)
	}
	sort.Strings(r.Added)
	sort.Strings(r.Removed)
	return r
}

// snapshotOf returns the run's final metric snapshot (empty if absent).
func snapshotOf(run *RunData) *Snapshot {
	if run != nil && run.Manifest != nil && run.Manifest.Metrics != nil {
		return run.Manifest.Metrics
	}
	return &Snapshot{}
}

// elapsedOf returns the run's wall time.
func elapsedOf(run *RunData) time.Duration {
	if run == nil || run.Manifest == nil {
		return 0
	}
	return time.Duration(run.Manifest.ElapsedSeconds * float64(time.Second))
}

// steadyRate derives the pipeline read rate over each run's middle samples.
func steadyRate(base, cand *RunData) (DiffRow, bool) {
	bv, bok := seriesSteadyRate(base)
	cv, cok := seriesSteadyRate(cand)
	if !bok || !cok {
		return DiffRow{}, false
	}
	row := DiffRow{
		Name: MetricPipelineReads + " (steady-state, from series)",
		Base: bv,
		Cand: cv,
	}
	if bv > 0 {
		row.Delta = SanitizeFloat(cv/bv - 1)
	}
	return row, true
}

// seriesSteadyRate computes the read rate over the middle half of a run's
// series samples.
func seriesSteadyRate(run *RunData) (float64, bool) {
	if run == nil || run.Series == nil || len(run.Series.Samples) < 4 {
		return 0, false
	}
	s := run.Series.Samples
	lo, hi := len(s)/4, len(s)-1-len(s)/4
	if hi <= lo {
		return 0, false
	}
	dr := s[hi].Counters[MetricPipelineReads] - s[lo].Counters[MetricPipelineReads]
	dt := s[hi].Time.Sub(s[lo].Time)
	if dr <= 0 || dt <= 0 {
		return 0, false
	}
	return Rate(float64(dr), dt), true
}

// unionNames returns the sorted union of two metric maps' keys.
func unionNames[A, B any](a map[string]A, b map[string]B) []string {
	set := make(map[string]struct{}, len(a)+len(b))
	for name := range a {
		set[name] = struct{}{}
	}
	for name := range b {
		set[name] = struct{}{}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteMarkdown renders the report for humans and CI artifacts.
func (r *DiffReport) WriteMarkdown(w io.Writer) error {
	verdict := "PASS"
	if r.Regressed() {
		verdict = "REGRESSED"
	}
	if _, err := fmt.Fprintf(w, "# Perf diff: %s\n\n", verdict); err != nil {
		return err
	}
	fmt.Fprintf(w, "| run | manifest | tool | host | go | elapsed |\n|---|---|---|---|---|---|\n")
	for _, rd := range []struct {
		label string
		run   *RunData
	}{{"baseline", r.Baseline}, {"candidate", r.Candidate}} {
		m := rd.run.Manifest
		fmt.Fprintf(w, "| %s | `%s` | %s | %s | %s | %.2fs |\n",
			rd.label, rd.run.Path, m.Tool, m.Hostname, m.GoVersion, m.ElapsedSeconds)
	}

	fmt.Fprintf(w, "\n## Throughput\n\n| metric | baseline/s | candidate/s | delta | verdict |\n|---|---:|---:|---:|---|\n")
	for _, row := range r.Throughput {
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %+.1f%% | %s |\n",
			row.Name, row.Base, row.Cand, row.Delta*100, rowVerdict(row))
	}

	fmt.Fprintf(w, "\n## Tail latency (p99)\n\n| metric | baseline | candidate | delta | verdict |\n|---|---:|---:|---:|---|\n")
	for _, row := range r.Latency {
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%% | %s |\n",
			row.Name, fmtSeconds(row.Base), fmtSeconds(row.Cand), row.Delta*100, rowVerdict(row))
	}

	if len(r.Gauges) > 0 {
		fmt.Fprintf(w, "\n## Gauge levels (final values, informational)\n\n| metric | baseline | candidate | delta |\n|---|---:|---:|---:|\n")
		for _, row := range r.Gauges {
			fmt.Fprintf(w, "| %s | %.0f | %.0f | %+.1f%% |\n",
				row.Name, row.Base, row.Cand, row.Delta*100)
		}
	}

	if len(r.Added) > 0 {
		fmt.Fprintf(w, "\nMetrics only in candidate: %s\n", strings.Join(r.Added, ", "))
	}
	if len(r.Removed) > 0 {
		fmt.Fprintf(w, "\nMetrics only in baseline: %s\n", strings.Join(r.Removed, ", "))
	}

	if m := r.Candidate.Manifest; m != nil && len(m.SlowReads) > 0 {
		fmt.Fprintf(w, "\n## Candidate slow reads\n\n| read | seeds | cluster | extend | total | cache build |\n|---|---:|---:|---:|---:|---:|\n")
		for _, ex := range m.SlowReads {
			fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s |\n",
				ex.Read, ex.Seeds,
				fmtSeconds(time.Duration(ex.ClusterNanos).Seconds()),
				fmtSeconds(time.Duration(ex.ExtendNanos).Seconds()),
				fmtSeconds(time.Duration(ex.TotalNanos).Seconds()),
				fmtSeconds(time.Duration(ex.CacheBuildNanos).Seconds()))
		}
	}

	_, err := fmt.Fprintf(w, "\nVerdict: **%s** (p99 rise >%.0f%%, throughput drop >%.0f%%, min count %d)\n",
		verdict, r.Opts.P99Rise*100, r.Opts.ThroughputDrop*100, r.Opts.MinCount)
	return err
}

// rowVerdict renders a row's outcome cell.
func rowVerdict(row DiffRow) string {
	switch {
	case row.Regressed:
		return "**REGRESSED**"
	case row.Note != "":
		return row.Note
	case !row.Gated:
		return "info"
	default:
		return "ok"
	}
}

// fmtSeconds renders a duration in engineer-friendly units.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
