package gbwt

// CachedGBWT keeps decompressed records in an open-addressing hash table so
// repeated accesses to the same subgraph skip decompression. This mirrors
// Giraffe's CachedGBWT: the table's *initial capacity* is a tuning parameter
// (default 256 in Giraffe), and growth happens through an expensive rehash —
// which is exactly why the miniGiraffe autotuning study (§VII-B) found the
// initial capacity to be the statistically significant knob.
//
// A CachedGBWT is not safe for concurrent use; the mapper gives each worker
// thread its own cache, as Giraffe does.
type CachedGBWT struct {
	g *GBWT
	// Open addressing with linear probing. Slot keys store node+1 so the
	// zero value means empty (the endmarker is cacheable as key 1).
	keys []NodeID
	vals []*DecodedRecord
	used int
	// initial is the capacity NewCached was asked for, rounded up: the size
	// Reset rewinds the table to. 0 disables caching entirely.
	initial int
	// spareKeys/spareVals are the table rehash left behind, the backing of the
	// next rehash that fits it. Their contents are stale; a table is cleared
	// when it goes into service, never when it leaves.
	spareKeys []NodeID
	spareVals []*DecodedRecord
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
	Hits     int64 // private-layer hits
	Misses   int64 // decompressions
	Rehashes int64
	// SharedHits counts hits answered by the shared epoch snapshot
	// (EpochReader); zero when running per-batch private caches only.
	// Snapshot hits are counted in Accesses but not in Hits, so
	// Hits+SharedHits+Misses == Accesses regardless of cache discipline.
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

// TotalHits returns hits across both layers (private + shared snapshot).
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
	if capacity <= 0 {
		return c
	}
	c.initial = pow2ceil(capacity)
	c.keys = make([]NodeID, c.initial)
	c.vals = make([]*DecodedRecord, c.initial)
	return c
}

// Base implements Reader.
func (c *CachedGBWT) Base() *GBWT { return c.g }

// Stats returns a copy of the cache counters.
func (c *CachedGBWT) Stats() CacheStats { return c.stats }

// Capacity returns the current table capacity (0 when disabled).
func (c *CachedGBWT) Capacity() int { return len(c.keys) }

// Len returns the number of cached records.
func (c *CachedGBWT) Len() int { return c.used }

// hash mixes the node id; table sizes are powers of two so we multiply by a
// 32-bit odd constant (Knuth) and fold.
func (c *CachedGBWT) hash(v NodeID) int {
	h := uint32(v) * 2654435761
	return int(h) & (len(c.keys) - 1)
}

// Record implements Reader with memoisation.
//
//minigiraffe:hot
func (c *CachedGBWT) Record(v NodeID) *DecodedRecord {
	c.stats.Accesses++
	if c.initial == 0 {
		c.stats.Misses++
		return c.g.Record(v)
	}
	key := v + 1
	i := c.hash(v)
	for c.keys[i] != 0 {
		if c.keys[i] == key {
			c.stats.Hits++
			return c.vals[i]
		}
		i = (i + 1) & (len(c.keys) - 1)
	}
	c.stats.Misses++
	rec := c.g.record(v, &c.slab)
	if rec == nil {
		return nil
	}
	c.insert(key, rec, i)
	return rec
}

// insert places the record at the probe slot, rehashing first if the load
// factor would exceed the threshold.
func (c *CachedGBWT) insert(key NodeID, rec *DecodedRecord, slot int) {
	if (c.used+1)*maxLoadDen > len(c.keys)*maxLoadNum {
		c.rehash()
		// Re-probe in the grown table.
		slot = c.hash(key - 1)
		for c.keys[slot] != 0 {
			slot = (slot + 1) & (len(c.keys) - 1)
		}
	}
	c.keys[slot] = key
	c.vals[slot] = rec
	c.used++
}

// rehash doubles the table and reinserts every entry — the expensive growth
// operation the initial-capacity parameter exists to avoid. The doubled table
// is the spare one when that is large enough (it is, from a reset cache's
// second batch of the same shape on), and the table left behind becomes the
// spare.
func (c *CachedGBWT) rehash() {
	c.stats.Rehashes++
	oldKeys, oldVals := c.keys, c.vals
	n := 2 * len(oldKeys)
	if cap(c.spareKeys) >= n {
		c.keys, c.vals = c.spareKeys[:n], c.spareVals[:n]
		clear(c.keys)
		clear(c.vals)
	} else {
		c.keys = make([]NodeID, n)
		c.vals = make([]*DecodedRecord, n)
	}
	c.spareKeys, c.spareVals = oldKeys[:cap(oldKeys)], oldVals[:cap(oldVals)]
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := c.hash(k - 1)
		for c.keys[j] != 0 {
			j = (j + 1) & (len(c.keys) - 1)
		}
		c.keys[j] = k
		c.vals[j] = oldVals[i]
	}
}

// Extend advances a search state through the cache.
func (c *CachedGBWT) Extend(s SearchState, to NodeID) SearchState {
	return ExtendWith(c, s, to)
}

// Find searches for a node path through the cache.
func (c *CachedGBWT) Find(path []NodeID) SearchState { return FindWith(c, path) }

// Reset rewinds the cache to what NewCached returned — empty, at the initial
// capacity, counters at zero — so that the probes, inserts and rehashes of
// the accesses that follow, and therefore their CacheStats, are those of a
// fresh cache. What it keeps is memory only: the table's backing, the spare
// table rehash grows into, and the largest slab chunk of each kind. Records
// handed out before Reset are overwritten by the misses after it: a
// *DecodedRecord is valid until the Reset that follows it, no longer.
//
//minigiraffe:hot
func (c *CachedGBWT) Reset() {
	c.stats = CacheStats{}
	c.keys, c.vals = c.keys[:c.initial], c.vals[:c.initial]
	clear(c.keys)
	clear(c.vals)
	c.used = 0
	c.slab.rewind()
}
