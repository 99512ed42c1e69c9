package gbwt

// Epoch-published shared record cache.
//
// The per-batch CachedGBWT rebuild (Giraffe's cache lifetime, §VII-B) is the
// single biggest attributed cost in slow-read exemplars: every worker
// re-decodes the same zipf-hot node records every batch. This file replaces
// that discipline with a shared level in front of the private one, borrowed
// from Doppel's phase-split playbook:
//
//   - A SharedCache holds an immutable Snapshot of decoded records that
//     every worker reads lock-free through an atomic.Pointer. Hot records
//     survive across batches and across workers.
//   - A CachedGBWT from SharedCache.NewReader pins one snapshot per batch and
//     looks there first; its private table takes the records missing from
//     the snapshot, preserving the paper's capacity knob (the table is still
//     rebuilt per batch).
//   - Access-frequency feedback flows off the hot path: a reader's *decodes*
//     bump lock-free frequency slots; snapshot *hits* bump per-worker
//     per-slot counters on the snapshot itself. At batch boundaries a single
//     builder (CAS-elected) ranks residents + candidates by observed
//     frequency, carries the winners already resident over, decodes the
//     newly admitted ones, and publishes the next epoch.
//
// Immutability invariant: once published, a Snapshot's table is never
// written again — readers that pinned an old epoch keep a consistent view
// until they drop it. The per-worker hit counters are the only mutable cells
// on a published snapshot; they are atomic, advisory (they only steer the
// next epoch's ranking), and never affect lookup results. Correctness is
// cache-independent by construction: every level returns decoded records of
// the same underlying GBWT, so mapping output is byte-identical whichever
// level answers (the differential harness in internal/giraffe locks this).
//
// Ownership: a snapshot's records are immutable, individually heap-allocated
// and owned by the garbage collector — none is slab-backed. A resident that
// stays ranked is decoded once and carried from snapshot to snapshot by
// pointer; one that ages out is unreachable as soon as the last snapshot
// holding it is, so the live snapshot never pins more than Capacity records.

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"
)

// DefaultEpochInterval is the number of batch boundaries between epoch
// publications when EpochConfig.Interval is unset. Small keeps the snapshot
// fresh while a CAS guard ensures at most one builder runs at a time.
const DefaultEpochInterval = 2

// EpochConfig sizes a shared epoch cache.
type EpochConfig struct {
	// Capacity is the maximum number of hot records retained per direction
	// in the published snapshot (a top-K bound, not a table size; the open
	// addressing table is sized to a power of two above it).
	Capacity int
	// Workers is the number of per-worker hit-counter rows; out-of-range
	// worker indices clamp to the last row. ≤0 means 1.
	Workers int
	// Interval is the number of batch boundaries between publications;
	// ≤0 means DefaultEpochInterval.
	Interval int
}

func (c EpochConfig) normalize() EpochConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Interval <= 0 {
		c.Interval = DefaultEpochInterval
	}
	return c
}

// Snapshot is one published epoch: an immutable recordTable of decoded
// records. Lookup (find) is lock-free and allocation-free; the only mutable
// state is the advisory per-worker hit counters consumed by the next
// publish.
type Snapshot struct {
	recordTable
	epoch int64
	// hits is rows × len(keys) atomic counters, row-major per worker, so
	// concurrent workers never contend on one cache line for the same slot.
	hits []atomic.Int64
	rows int
}

// newSnapshot returns an empty snapshot sized for n residents; even the
// seed snapshot has a slot, so find needs no empty-table case.
func newSnapshot(epoch int64, rows, n int) *Snapshot {
	t := newRecordTable(pow2ceil(2 * n))
	return &Snapshot{recordTable: t, epoch: epoch, hits: make([]atomic.Int64, rows*len(t.keys)), rows: rows}
}

// Epoch returns the snapshot's publication number (0 = the empty seed
// snapshot that exists before the first publish).
func (s *Snapshot) Epoch() int64 { return s.epoch }

// Len returns the number of resident records.
func (s *Snapshot) Len() int { return s.used }

// hit bumps the worker-row counter of a resident slot — one uncontended
// atomic add; rows keep workers off each other's cache lines.
//
//minigiraffe:hot
func (s *Snapshot) hit(row, slot int) {
	s.hits[row*len(s.keys)+slot].Add(1)
}

// slotHits sums a slot's hit counters across all worker rows.
func (s *Snapshot) slotHits(slot int) int64 {
	var n int64
	for r := 0; r < s.rows; r++ {
		n += s.hits[r*len(s.keys)+slot].Load()
	}
	return n
}

// SharedCache is the epoch-published shared record cache of one GBWT
// direction: the current Snapshot plus the miss-frequency feedback the next
// epoch is built from.
type SharedCache struct {
	g   *GBWT
	cfg EpochConfig

	cur atomic.Pointer[Snapshot]

	// Feedback slots: a lock-free Misra-Gries-style frequency sketch fed by
	// readers' decodes. slotNode stores node+1 (0 = empty); collisions decay
	// the incumbent and eventually take the slot over. Races only blur
	// counts — the sketch is advisory.
	slotNode  []atomic.Uint64
	slotCount []atomic.Int64

	building  atomic.Bool
	publishes atomic.Int64
	// cands is Publish's candidate list, kept between publications. The
	// building flag makes whoever holds it the only user.
	cands []epochCand
}

// epochCand is one node competing for residence in the next epoch.
type epochCand struct {
	node  NodeID
	count int64
}

// NewShared builds a shared epoch cache over g. The initial snapshot is
// empty: every access falls through to the readers' private level (and its
// decodes feed the frequency sketch) until the first publish.
func NewShared(g *GBWT, cfg EpochConfig) *SharedCache {
	cfg = cfg.normalize()
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	// 4× capacity slots keep the sketch's collision rate low without
	// tracking exact per-node counts.
	slots := pow2ceil(4 * cfg.Capacity)
	c := &SharedCache{
		g:         g,
		cfg:       cfg,
		slotNode:  make([]atomic.Uint64, slots),
		slotCount: make([]atomic.Int64, slots),
		// Every sketch slot plus every resident: Publish never grows it.
		cands: make([]epochCand, 0, slots+cfg.Capacity),
	}
	c.cur.Store(newSnapshot(0, cfg.Workers, 0))
	return c
}

// Current returns the live snapshot (readers pin it once per batch, in
// NewReader and Reset, instead of loading per access).
func (c *SharedCache) Current() *Snapshot { return c.cur.Load() }

// Publishes returns how many epochs have been published.
func (c *SharedCache) Publishes() int64 { return c.publishes.Load() }

// Resident returns the record count of the live snapshot.
func (c *SharedCache) Resident() int { return c.cur.Load().used }

// note feeds one decode behind a snapshot into the frequency sketch: lock-free,
// allocation-free, tolerant of racing writers.
//
//minigiraffe:hot
func (c *SharedCache) note(v NodeID) {
	mask := uint32(len(c.slotNode) - 1)
	h := (uint32(v) * 2654435761) & mask
	key := uint64(v) + 1
	n := c.slotNode[h].Load()
	switch {
	case n == key:
		c.slotCount[h].Add(1)
	case n == 0 && c.slotNode[h].CompareAndSwap(0, key):
		c.slotCount[h].Add(1)
	default:
		// Collision: decay the incumbent; once drained, take the slot over.
		if c.slotCount[h].Add(-1) <= 0 {
			c.slotNode[h].Store(key)
			c.slotCount[h].Store(1)
		}
	}
}

// Publish builds and publishes the next epoch from the drained frequency
// sketch plus the current residents ranked by their observed hits; its cost
// follows the nodes admitted, not Capacity. At most
// one publisher runs at a time; a concurrent call returns false without
// blocking. Publish is the builder's entry point — it is deliberately off
// the mapping hot path (batch boundaries only).
func (c *SharedCache) Publish() bool {
	if !c.building.CompareAndSwap(false, true) {
		return false
	}
	defer c.building.Store(false)
	old := c.cur.Load()

	cands := c.cands[:0]
	// Drain the sketch: candidates that missed the current snapshot.
	for i := range c.slotNode {
		n := c.slotNode[i].Swap(0)
		cnt := c.slotCount[i].Swap(0)
		if n == 0 || cnt <= 0 {
			continue
		}
		cands = append(cands, epochCand{node: NodeID(n - 1), count: cnt})
	}
	// Current residents, ranked by this epoch's hit counters: entries that
	// kept hitting stay; entries nobody touched age out against fresh
	// candidates.
	for i, k := range old.keys {
		if k == 0 {
			continue
		}
		cands = append(cands, epochCand{node: k - 1, count: old.slotHits(i)})
	}
	c.cands = cands
	// A node can appear as both resident and sketch candidate (a reader
	// pinned to an older epoch missed it); merge counts deterministically.
	slices.SortFunc(cands, func(a, b epochCand) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(b.count, a.count))
	})
	merged := cands[:0]
	for _, cd := range cands {
		if n := len(merged); n > 0 && merged[n-1].node == cd.node {
			merged[n-1].count += cd.count
			continue
		}
		merged = append(merged, cd)
	}
	// Rank by frequency, ties by node id so equal-frequency publishes are
	// deterministic within a run.
	slices.SortFunc(merged, func(a, b epochCand) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.node, b.node))
	})
	if len(merged) > c.cfg.Capacity {
		merged = merged[:c.cfg.Capacity]
	}

	snap := newSnapshot(old.epoch+1, c.cfg.Workers, len(merged))
	for _, cd := range merged {
		// Carry-over: a resident that stays ranked keeps the record the
		// replaced snapshot holds; only a newly admitted node is decoded.
		rec, _ := old.find(cd.node)
		if rec == nil {
			rec = c.g.Record(cd.node)
		}
		if rec == nil {
			continue // unvisited node noted by a stale sketch entry
		}
		snap.put(cd.node, rec)
	}
	c.cur.Store(snap)
	c.publishes.Add(1)
	return true
}

// NewReader builds a worker's reader under the epoch discipline: a CachedGBWT
// with the current snapshot pinned in front of a private table of the given
// capacity (the §VII-B knob; 0 drops the table so every snapshot miss
// decompresses). Each worker builds its own and Resets it per batch, which
// pins one snapshot for the whole batch.
func (c *SharedCache) NewReader(worker, capacity int) *CachedGBWT {
	r := NewCached(c.g, capacity)
	r.shared, r.snap, r.row = c, c.cur.Load(), c.row(worker)
	return r
}

// row clamps a worker index onto the hit-counter rows.
func (c *SharedCache) row(worker int) int {
	return min(max(worker, 0), c.cfg.Workers-1)
}

// SharedBiCache pairs one SharedCache per direction of a bidirectional
// index and owns the epoch clock: batch boundaries tick it, and every
// Interval ticks one caller (CAS-elected) publishes both directions.
type SharedBiCache struct {
	Fwd, Rev *SharedCache

	interval int64
	batches  atomic.Int64
	building atomic.Bool
}

// NewSharedBi builds shared epoch caches over both directions of b.
func NewSharedBi(b *Bidirectional, cfg EpochConfig) *SharedBiCache {
	cfg = cfg.normalize()
	return &SharedBiCache{
		Fwd:      NewShared(b.Forward(), cfg),
		Rev:      NewShared(b.Reverse(), cfg),
		interval: int64(cfg.Interval),
	}
}

// NewBiReader builds the per-worker reader pair of the epoch discipline, one
// NewReader per direction.
func (s *SharedBiCache) NewBiReader(worker, capacity int) BiReader {
	return BiReader{Fwd: s.Fwd.NewReader(worker, capacity), Rev: s.Rev.NewReader(worker, capacity)}
}

// MaybePublish is the batch-boundary hook: it ticks the epoch clock and,
// every Interval ticks, publishes the next epoch of both directions in the
// calling goroutine (off the record-mapping hot path). The build duration is
// returned to whoever won the publication so the cost can be attributed;
// everyone else returns false immediately.
func (s *SharedBiCache) MaybePublish() (time.Duration, bool) {
	if s.batches.Add(1) < s.interval {
		return 0, false
	}
	if !s.building.CompareAndSwap(false, true) {
		return 0, false
	}
	defer s.building.Store(false)
	s.batches.Store(0)
	t0 := time.Now()
	s.Fwd.Publish()
	s.Rev.Publish()
	return time.Since(t0), true
}

// Publishes returns the forward direction's epoch count (both directions
// publish together).
func (s *SharedBiCache) Publishes() int64 { return s.Fwd.Publishes() }

// Resident returns the total records resident across both directions.
func (s *SharedBiCache) Resident() int { return s.Fwd.Resident() + s.Rev.Resident() }

// pow2ceil rounds n up to the next power of two (minimum 1).
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
