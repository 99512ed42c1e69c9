package obs

import (
	"sort"

	"repro/internal/trace"
)

// Exemplar is one captured slow read: enough context to explain a
// cluster_seeds / process_until_threshold_c tail hit (the paper's Fig. 5-7
// characterization) without re-running — which read, how many seeds it
// carried, where the time went, and how much of its batch's CachedGBWT
// rebuild it rode behind. Durations are nanoseconds so the hot capture path
// never converts floats.
type Exemplar struct {
	Read   string `json:"read"`
	Index  int    `json:"index"`  // global record index in the workload
	Worker int    `json:"worker"` // shard that mapped it
	Seeds  int    `json:"seeds"`
	// ClusterNanos and ExtendNanos split the read's time between the two
	// critical functions; TotalNanos (their sum) is the reservoir's ranking
	// key.
	ClusterNanos int64 `json:"cluster_ns"`
	ExtendNanos  int64 `json:"extend_ns"`
	TotalNanos   int64 `json:"total_ns"`
	// CacheBuildNanos attributes the batch's per-batch CachedGBWT rebuild
	// (§VII-B) to the read: a "slow" read in a batch with an expensive
	// rebuild is a cache-capacity problem, not a kernel problem. Under the
	// epoch discipline it covers only the private overflow construction.
	CacheBuildNanos int64 `json:"cache_build_ns"`
	// SharedBuildNanos attributes a shared-epoch publication this worker
	// performed at the preceding batch boundary to the reads of the batch
	// that follows it; zero when the epoch cache is off or another worker
	// won the publication.
	SharedBuildNanos int64 `json:"cache_build_shared_ns,omitempty"`
	// Trace is the owning request's trace ID when the read was mapped by a
	// serving Session (zero, rendered "", in batch mode), joining a /slow
	// entry to its request's span tree in /traces.
	Trace trace.ID `json:"trace_id"`
}

// SlowReads is a sharded reservoir of the K slowest reads, ranked by
// TotalNanos. Offer is the mapper hot-path entry: per-worker sharded,
// allocation-free, and nil-safe (a nil *SlowReads ignores offers), mirroring
// the Registry's discipline. Rotate closes a window, folding it into the
// run-level top K; the debug endpoint's /slow serves both views and the
// manifest archives the run view.
type SlowReads struct {
	k      int
	shards []reservoir[Exemplar] // one per worker: the current window
	run    reservoir[Exemplar]   // top K across all rotated windows
}

// NewSlowReads sizes the reservoir: one shard per worker (size for the map
// worker count; out-of-range shards clamp), each retaining the k slowest
// reads of the current window.
func NewSlowReads(shards, k int) *SlowReads {
	if shards < 1 {
		shards = 1
	}
	if k < 1 {
		k = 1
	}
	s := &SlowReads{k: k, shards: make([]reservoir[Exemplar], shards)}
	for i := range s.shards {
		s.shards[i].init(k)
	}
	s.run.init(k)
	return s
}

// K returns the per-window retention (0 for a nil reservoir).
func (s *SlowReads) K() int {
	if s == nil {
		return 0
	}
	return s.k
}

// Offer folds one mapped read into the worker's shard, keeping it only if it
// ranks among the shard's K slowest this window. Reads no slower than the
// shard's current floor (including zero-duration reads) return after a
// single atomic load. Never allocates: the heap's backing array is
// preallocated at capacity K.
//
// Pass the calling worker's own index as shard. Any value is safe — shards
// clamp and lock — but a constant or a stale captured index funnels every
// goroutine onto one shard's lock and misattributes which worker was slow.
//
//minigiraffe:hot
func (s *SlowReads) Offer(shard int, ex Exemplar) {
	if s == nil {
		return
	}
	if uint(shard) >= uint(len(s.shards)) {
		shard = 0
	}
	s.shards[shard].offer(ex.TotalNanos, ex) //vetgiraffe:ignore hotpath the reservoir's atomic floor gate means only genuine top-K inserts reach its uncontended per-shard lock
}

// Rotate closes the current window: every shard's reservoir is drained into
// the run-level top K and reset. The stack's sampler rotates once per tick,
// so a window is one sampler interval.
func (s *SlowReads) Rotate() {
	if s == nil {
		return
	}
	for i := range s.shards {
		s.shards[i].foldInto(&s.run)
	}
}

// Window returns the current (un-rotated) window's top K, slowest first.
func (s *SlowReads) Window() []Exemplar {
	if s == nil {
		return nil
	}
	var all []Exemplar
	for i := range s.shards {
		all = s.shards[i].values(all)
	}
	return topK(all, s.k)
}

// Top returns the run-level top K — every rotated window folded together
// with the current one — slowest first. This is what the manifest archives.
func (s *SlowReads) Top() []Exemplar {
	if s == nil {
		return nil
	}
	return topK(s.run.values(s.Window()), s.k)
}

// topK sorts slowest-first and truncates.
func topK(all []Exemplar, k int) []Exemplar {
	sort.Slice(all, func(i, j int) bool {
		if all[i].TotalNanos != all[j].TotalNanos {
			return all[i].TotalNanos > all[j].TotalNanos
		}
		return all[i].Index < all[j].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
