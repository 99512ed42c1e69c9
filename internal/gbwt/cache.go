package gbwt

// recordTable is the one hash table of decoded records: open addressing with
// linear probing over a power-of-two slot count that always keeps an empty
// slot. A CachedGBWT's private level and a published Snapshot are both built
// on it; the hash and the probe are written here and nowhere else.
type recordTable struct {
	// keys store node+1 so the zero value means empty (the endmarker is
	// cacheable as key 1).
	keys []NodeID
	vals []*DecodedRecord
	used int
}

func newRecordTable(slots int) recordTable {
	return recordTable{keys: make([]NodeID, slots), vals: make([]*DecodedRecord, slots)}
}

// find probes for v: its record and slot, or nil and the empty slot the probe
// stopped at. Table sizes are powers of two, so the hash multiplies by a
// 32-bit odd constant (Knuth) and folds.
//
//minigiraffe:hot
func (t *recordTable) find(v NodeID) (*DecodedRecord, int) {
	mask := len(t.keys) - 1
	i := int(uint32(v)*2654435761) & mask
	for t.keys[i] != 0 {
		if t.keys[i] == v+1 {
			return t.vals[i], i
		}
		i = (i + 1) & mask
	}
	return nil, i
}

// set stores rec under v in slot, the empty slot find(v) stopped at.
func (t *recordTable) set(slot int, v NodeID, rec *DecodedRecord) {
	t.keys[slot], t.vals[slot] = v+1, rec
	t.used++
}

// put stores rec under v, which the table does not hold, where find stops.
func (t *recordTable) put(v NodeID, rec *DecodedRecord) {
	_, slot := t.find(v)
	t.set(slot, v, rec)
}

// reset empties the table at the first slots slots of its backing.
func (t *recordTable) reset(slots int) {
	t.keys, t.vals, t.used = t.keys[:slots], t.vals[:slots], 0
	clear(t.keys)
	clear(t.vals)
}

// CachedGBWT is the record reader of the map path: a chain of cache levels
// in front of the decoder, each present or absent by construction.
//
//   - A pinned Snapshot of a SharedCache, when the reader came from
//     SharedCache.NewReader: the epoch discipline's shared level (epoch.go).
//   - A private table of the records this reader decoded, unless it was built
//     with capacity 0. This mirrors Giraffe's CachedGBWT: the table's *initial
//     capacity* is a tuning parameter (default 256 in Giraffe), and growth
//     happens through an expensive rehash — which is exactly why the
//     miniGiraffe autotuning study (§VII-B) found the initial capacity to be
//     the statistically significant knob.
//   - GBWT.Record, which decompresses.
//
// A record is valid until the reader's next Reset unless it came from a
// snapshot; a snapshot's records are immutable and garbage-collected.
//
// A CachedGBWT is not safe for concurrent use; the mapper gives each worker
// thread its own, as Giraffe does.
type CachedGBWT struct {
	g *GBWT
	// shared, snap and row are the shared level: the cache this reader reports
	// its decodes to, the snapshot Reset pinned, and the worker's hit-counter
	// row on it. All zero without a shared cache.
	shared *SharedCache
	snap   *Snapshot
	row    int
	// table is the private level; initial is the capacity NewCached was asked
	// for, rounded up: the size Reset rewinds the table to. 0 disables the
	// level entirely.
	table   recordTable
	initial int
	// spare is the table rehash left behind, the backing of the next rehash
	// that fits it. Its contents are stale; a table is cleared when it goes
	// into service, never when it leaves.
	spare recordTable
	// slab holds every record the table points at: a miss decodes into it
	// instead of allocating, and it lives exactly as long as the entries do
	// (Reset rewinds both).
	slab recordSlab

	stats CacheStats
}

// CacheStats counts cache behaviour for the instrumentation and counter
// models.
type CacheStats struct {
	Accesses int64
	Hits     int64 // private-level hits
	Misses   int64 // decompressions
	Rehashes int64
	// SharedHits counts hits answered by the pinned epoch snapshot; zero when
	// running per-batch private caches only. Hits+SharedHits+Misses ==
	// Accesses regardless of cache discipline.
	SharedHits int64
}

// Add accumulates another cache's counters into s (workers drain their
// per-batch caches into a per-run aggregate). Addition is commutative, so
// merging per-worker stats is order-independent whichever worker finishes
// first.
func (s *CacheStats) Add(o CacheStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Rehashes += o.Rehashes
	s.SharedHits += o.SharedHits
}

// TotalHits returns hits across both levels (private + shared snapshot).
func (s CacheStats) TotalHits() int64 { return s.Hits + s.SharedHits }

// DefaultCacheCapacity is Giraffe's default initial CachedGBWT capacity.
const DefaultCacheCapacity = 256

// maxLoadNum/maxLoadDen is the load factor threshold (3/4) that triggers a
// rehash to double capacity.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

// NewCached wraps g with a record cache of the given initial capacity.
// Capacity 0 disables caching (every access decompresses); other values are
// rounded up to a power of two.
func NewCached(g *GBWT, capacity int) *CachedGBWT {
	c := &CachedGBWT{g: g}
	if capacity > 0 {
		c.initial = pow2ceil(capacity)
		c.table = newRecordTable(c.initial)
	}
	return c
}

// Base returns the underlying GBWT.
func (c *CachedGBWT) Base() *GBWT { return c.g }

// Stats returns a copy of the cache counters.
func (c *CachedGBWT) Stats() CacheStats { return c.stats }

// Capacity returns the private table's current capacity (0 when disabled).
func (c *CachedGBWT) Capacity() int { return len(c.table.keys) }

// Record returns the decoded record of v, or nil if v has no visits, from the
// first level that holds it: snapshot hit (lock-free, zero-alloc) → private
// table → decode.
//
//minigiraffe:hot
func (c *CachedGBWT) Record(v NodeID) *DecodedRecord {
	c.stats.Accesses++
	if c.snap != nil {
		if rec, slot := c.snap.find(v); rec != nil {
			c.stats.SharedHits++
			c.snap.hit(c.row, slot)
			return rec
		}
	}
	if c.initial == 0 {
		return c.decode(v, nil)
	}
	rec, slot := c.table.find(v)
	if rec != nil {
		c.stats.Hits++
		return rec
	}
	if rec = c.decode(v, &c.slab); rec != nil {
		// Growth happens before the insert that would cross the load factor,
		// and only then is the miss's slot probed for again.
		if (c.table.used+1)*maxLoadDen > len(c.table.keys)*maxLoadNum {
			c.rehash()
			_, slot = c.table.find(v)
		}
		c.table.set(slot, v, rec)
	}
	return rec
}

// decode is the last level: v's record decompressed into slab (nil: the
// heap), counted as a miss and, behind a snapshot, fed to the shared cache's
// frequency sketch so the next epoch learns what this one was missing.
func (c *CachedGBWT) decode(v NodeID, slab *recordSlab) *DecodedRecord {
	c.stats.Misses++
	rec := c.g.record(v, slab)
	if rec != nil && c.snap != nil {
		c.shared.note(v)
	}
	return rec
}

// rehash doubles the table and reinserts every entry — the expensive growth
// operation the initial-capacity parameter exists to avoid. The doubled table
// is the spare one when that is large enough (it is, from a reset cache's
// second batch of the same shape on), and the table left behind becomes the
// spare.
func (c *CachedGBWT) rehash() {
	c.stats.Rehashes++
	old := c.table
	if n := 2 * len(old.keys); cap(c.spare.keys) >= n {
		c.table = c.spare
		c.table.reset(n)
	} else {
		c.table = newRecordTable(n)
	}
	c.spare = old
	for i, k := range old.keys {
		if k != 0 {
			c.table.put(k-1, old.vals[i])
		}
	}
}

// Reset makes c what its constructor would return now for worker — the
// private table empty at the initial capacity, counters at zero, the shared
// cache's current snapshot pinned (worker is unused without one) — so that
// the probes, inserts and rehashes of the accesses that follow, and therefore
// their CacheStats, are those of a fresh reader. What it keeps is memory
// only: the table's backing, the spare table rehash grows into, and the
// largest slab chunk of each kind. Records decoded before Reset are
// overwritten by the misses after it.
//
//minigiraffe:hot
func (c *CachedGBWT) Reset(worker int) {
	c.stats = CacheStats{}
	c.table.reset(c.initial)
	c.slab.rewind()
	if c.shared != nil {
		c.snap, c.row = c.shared.cur.Load(), c.shared.row(worker)
	}
}
