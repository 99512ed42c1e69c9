// Fixture for the atomicmix analyzer: mixed atomic/non-atomic access to the
// same struct field must be reported.
package a

import "sync/atomic"

type counterSet struct {
	hits  int64
	total int64 // never accessed atomically: plain access is fine
}

func (c *counterSet) bump() {
	atomic.AddInt64(&c.hits, 1)
}

func (c *counterSet) snapshot() (int64, int64) {
	return c.hits, c.total // want `non-atomic access to field hits`
}

func (c *counterSet) reset() {
	c.hits = 0 // want `non-atomic access to field hits`
	c.total = 0
}

func (c *counterSet) increment() {
	c.hits++ // want `non-atomic access to field hits`
}

func (c *counterSet) loadOK() int64 {
	return atomic.LoadInt64(&c.hits)
}

func (c *counterSet) casOK(old, new int64) bool {
	return atomic.CompareAndSwapInt64(&c.hits, old, new)
}

func (c *counterSet) drained() int64 {
	return c.hits //vetgiraffe:ignore atomicmix read after all workers joined
}

// newCounterSet uses a composite literal: initialization before the value is
// shared is not a mixed access.
func newCounterSet() *counterSet {
	return &counterSet{hits: 0, total: 0}
}

// escape passes the field's address to a helper; classification is left to
// the helper's own package pass.
func (c *counterSet) escape(f func(*int64)) {
	f(&c.hits)
}
