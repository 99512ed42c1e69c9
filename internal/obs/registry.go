// Package obs is the unified observability layer: a sharded metrics
// registry (counters, gauges, log-bucketed latency histograms), a
// Prometheus-text scrape and Perfetto trace export over the same data the
// paper's instrumentation header collects (§III), a run manifest emitted
// next to every result file, and a live debug HTTP endpoint.
//
// The design mirrors trace.Recorder: the record path is per-worker, so the
// hot kernels never share a cache line, never take a lock, and pay one
// uncontended atomic add per event; shards are merged only on scrape. Every
// entry point is nil-safe — a nil *Registry hands out nil metric handles
// whose methods are no-ops — so instrumented code needs no configuration
// branches and the default (observability off) keeps the hot path clean.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// cell is one shard's counter storage, padded to a cache line so adjacent
// shards never false-share.
type cell struct {
	v int64
	_ [56]byte
}

// Registry hands out named metrics. Registration (Counter, Gauge,
// Histogram) takes a lock and is meant for setup paths; the returned handles
// record lock-free. Names must be string literals or named constants — the
// metricname analyzer enforces bounded cardinality.
type Registry struct {
	shards int

	// workerShards is how many leading shards belong to map workers — the
	// population the derived claim-imbalance gauges are computed over (the
	// trailing ingest/emit shards never claim batches and must not dilute
	// the mean). Zero disables the derivation.
	workerShards int64

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates a registry with one shard per worker. Shard indices
// passed to the handles are clamped, so sizing for the map-worker count is
// enough even when auxiliary goroutines (ingest, emit, extractors) record
// too.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		shards:   shards,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Shards returns the per-worker shard count (0 for a nil registry).
func (r *Registry) Shards() int {
	if r == nil {
		return 0
	}
	return r.shards
}

// SetWorkerShards declares that the first n shards are map workers. Scrapes
// then derive the scheduler straggler gauges (sched_claim_imbalance_milli,
// sched_steal_share_milli) from the per-shard claim counters, so a worker
// that claims far more batches than the mean shows up in the series even
// though the claim counter itself scrapes as a merged total. Nil-safe.
func (r *Registry) SetWorkerShards(n int) {
	if r == nil || n <= 0 {
		return
	}
	atomic.StoreInt64(&r.workerShards, int64(n))
}

// updateDerived refreshes the derived scheduler gauges from the claim/steal
// counters' per-shard values. Called on every Snapshot so the manifest, the
// Prometheus scrape, and the archived series all see fresh values.
func (r *Registry) updateDerived() {
	n := int(atomic.LoadInt64(&r.workerShards))
	if n <= 0 {
		return
	}
	r.mu.Lock()
	claims := r.counters[MetricSchedClaims]
	steals := r.counters[MetricSchedSteals]
	r.mu.Unlock()
	if claims == nil {
		return
	}
	if n > len(claims.cells) {
		n = len(claims.cells)
	}
	var sum, maxv int64
	for i := 0; i < n; i++ {
		v := atomic.LoadInt64(&claims.cells[i].v)
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if sum == 0 {
		return
	}
	mean := float64(sum) / float64(n)
	r.Gauge(MetricSchedClaimImbalance).Set(0, int64(math.Round(1000*float64(maxv)/mean)))
	if steals != nil {
		r.Gauge(MetricSchedStealShare).Set(0, int64(math.Round(1000*float64(steals.Value())/float64(sum))))
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe: a
// nil registry returns a nil handle whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{cells: make([]cell, r.shards)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{cells: make([]cell, r.shards)}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(r.shards)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	cells []cell
}

// Add adds delta on the worker's shard. Out-of-range shards clamp to 0, so
// single-writer stages can just use shard 0.
func (c *Counter) Add(shard int, delta int64) {
	if c == nil {
		return
	}
	if uint(shard) >= uint(len(c.cells)) {
		shard = 0
	}
	atomic.AddInt64(&c.cells[shard].v, delta)
}

// Inc adds one on the worker's shard.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value merges the shards (safe concurrently with Add).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += atomic.LoadInt64(&c.cells[i].v)
	}
	return sum
}

// Gauge is a sharded up/down value; the scraped value is the sum over
// shards, so paired Add(+1)/Add(-1) from different stages read as the
// current in-flight level.
type Gauge struct {
	cells []cell
}

// Add moves the gauge on the worker's shard.
func (g *Gauge) Add(shard int, delta int64) {
	if g == nil {
		return
	}
	if uint(shard) >= uint(len(g.cells)) {
		shard = 0
	}
	atomic.AddInt64(&g.cells[shard].v, delta)
}

// Set stores v on the worker's shard (meaningful for single-writer gauges).
func (g *Gauge) Set(shard int, v int64) {
	if g == nil {
		return
	}
	if uint(shard) >= uint(len(g.cells)) {
		shard = 0
	}
	atomic.StoreInt64(&g.cells[shard].v, v)
}

// Value merges the shards.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	var sum int64
	for i := range g.cells {
		sum += atomic.LoadInt64(&g.cells[i].v)
	}
	return sum
}

// histBuckets is the bucket count of the log2 histogram: bucket b holds
// durations whose nanosecond value has bit length b, i.e. [2^(b-1), 2^b).
// Bucket 0 is exactly zero. 64 bit lengths cover every int64 duration.
const histBuckets = 65

// histShard is one worker's histogram storage. The buckets span multiple
// cache lines; only the first and last line can false-share with a
// neighbouring shard, which the trailing pad avoids.
type histShard struct {
	count   int64
	sum     int64 // nanoseconds
	min     int64 // exact recorded minimum; math.MaxInt64 until the first Observe
	max     int64 // exact recorded maximum
	buckets [histBuckets]int64
	_       [24]byte
}

// newHistogram allocates the shard storage with each shard's recorded
// minimum at its sentinel.
func newHistogram(shards int) *Histogram {
	h := &Histogram{shards: make([]histShard, shards)}
	for i := range h.shards {
		h.shards[i].min = math.MaxInt64 // a plain store: the histogram is not published yet
	}
	return h
}

// Histogram is a sharded log2-bucketed latency histogram. Observe is one
// atomic add per field; quantiles are extracted from the merged buckets on
// scrape, with each bucket answering with its upper bound (a ≤2× upper
// estimate, matching the paper's order-of-magnitude latency breakdown
// needs).
type Histogram struct {
	shards []histShard
}

// Observe folds one duration into the worker's shard. Negative durations
// (clock steps) clamp to zero.
func (h *Histogram) Observe(shard int, d time.Duration) {
	if h == nil {
		return
	}
	if uint(shard) >= uint(len(h.shards)) {
		shard = 0
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s := &h.shards[shard]
	atomic.AddInt64(&s.count, 1)
	atomic.AddInt64(&s.sum, ns)
	atomic.AddInt64(&s.buckets[bits.Len64(uint64(ns))], 1)
	// Exact recorded bounds ride alongside the log2 buckets: the CAS loops
	// almost never iterate (the bound moves only on a new extreme) and never
	// allocate, so the hot path stays one cache line of uncontended atomics.
	for {
		cur := atomic.LoadInt64(&s.min)
		if ns >= cur || atomic.CompareAndSwapInt64(&s.min, cur, ns) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&s.max)
		if ns <= cur || atomic.CompareAndSwapInt64(&s.max, cur, ns) {
			break
		}
	}
}

// HistogramStats is one histogram's merged scrape: totals, quantile
// estimates in seconds, the exact recorded min/max alongside the
// log2-approximate quantiles, and the occupied buckets themselves so
// external consumers (the Prometheus _bucket series, a reader of the
// archived series) can recompute quantiles. All float fields are finite by
// construction, so the struct always marshals to valid JSON.
type HistogramStats struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	Mean       float64 `json:"mean_seconds"`
	P50        float64 `json:"p50_seconds"`
	P90        float64 `json:"p90_seconds"`
	P99        float64 `json:"p99_seconds"`
	// Min and Max are the exact recorded bounds.
	Min float64 `json:"min_seconds"`
	Max float64 `json:"max_seconds"`
	// Buckets lists the occupied log2 buckets with per-bucket (not
	// cumulative) counts, in increasing bit order.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one occupied log2 bucket: durations whose nanosecond value
// has bit length Bit, i.e. [2^(Bit-1), 2^Bit) ns; Bit 0 is exactly zero.
type HistBucket struct {
	Bit   int   `json:"bit"`
	Count int64 `json:"count"`
}

// UpperSeconds is the bucket's inclusive upper bound in seconds.
func (b HistBucket) UpperSeconds() float64 { return bucketUpperSeconds(b.Bit) }

// Stats merges the shards and extracts quantiles (safe concurrently with
// Observe; the snapshot is approximate while writers are active, as any
// scrape is).
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	var merged [histBuckets]int64
	var count, sum int64
	minNs, maxNs := int64(math.MaxInt64), int64(0)
	for i := range h.shards {
		s := &h.shards[i]
		count += atomic.LoadInt64(&s.count)
		sum += atomic.LoadInt64(&s.sum)
		if v := atomic.LoadInt64(&s.min); v < minNs {
			minNs = v
		}
		if v := atomic.LoadInt64(&s.max); v > maxNs {
			maxNs = v
		}
		for b := 0; b < histBuckets; b++ {
			merged[b] += atomic.LoadInt64(&s.buckets[b])
		}
	}
	st := HistogramStats{
		Count:      count,
		SumSeconds: SanitizeFloat(time.Duration(sum).Seconds()),
	}
	for b := 0; b < histBuckets; b++ {
		if merged[b] > 0 {
			st.Buckets = append(st.Buckets, HistBucket{Bit: b, Count: merged[b]})
		}
	}
	if count > 0 {
		st.Mean = SanitizeFloat(st.SumSeconds / float64(count))
		st.P50 = quantile(&merged, count, 0.50)
		st.P90 = quantile(&merged, count, 0.90)
		st.P99 = quantile(&merged, count, 0.99)
		st.Min = SanitizeFloat(time.Duration(minNs).Seconds())
		st.Max = SanitizeFloat(time.Duration(maxNs).Seconds())
	}
	return st
}

// quantile returns the upper bound of the bucket where the cumulative count
// crosses q, in seconds.
func quantile(buckets *[histBuckets]int64, count int64, q float64) float64 {
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += buckets[b]
		if cum >= rank {
			return bucketUpperSeconds(b)
		}
	}
	return bucketUpperSeconds(histBuckets - 1)
}

// bucketUpperSeconds is bucket b's inclusive upper bound in seconds.
func bucketUpperSeconds(b int) float64 {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return time.Duration(math.MaxInt64).Seconds()
	}
	return time.Duration(int64(1)<<b - 1).Seconds()
}

// Snapshot is one merged scrape of every registered metric — what /progress
// is derived from, a line of the archived series, and the manifest's
// final-state record.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot merges every metric's shards. Nil-safe: a nil registry scrapes
// to nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.updateDerived()
	r.mu.Lock()
	counters := make([]namedCounter, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, namedCounter{name, c})
	}
	gauges := make([]namedGauge, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, namedGauge{name, g})
	}
	hists := make([]namedHist, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, namedHist{name, h})
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramStats, len(hists)),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.g.Value()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.h.Stats()
	}
	return s
}

type namedCounter struct {
	name string
	c    *Counter
}
type namedGauge struct {
	name string
	g    *Gauge
}
type namedHist struct {
	name string
	h    *Histogram
}

// SanitizeFloat maps NaN and ±Inf to 0 so derived rates and shares always
// survive encoding/json (which rejects non-finite values).
func SanitizeFloat(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// Rate returns n per second over elapsed, guarded against zero, negative,
// and denormal elapsed times — the shared helper behind every reads/s
// figure, so manifests and /progress never emit NaN or Inf.
func Rate(n float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return SanitizeFloat(n / elapsed.Seconds())
}

// sortedNames returns the keys of a metric map in stable order (scrape
// output must be diffable between runs).
func sortedNames[M any](m map[string]M) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
