package obs

import (
	"sync"
	"sync/atomic"
)

// ranked is one retained value with the key it competes on.
type ranked[T any] struct {
	key int64
	v   T
}

// reservoir keeps the k highest-keyed values offered to it: a min-heap whose
// root is the weakest survivor. floor caches the root's key once the heap is
// full, so the common case — a value that ranks below everything retained —
// is rejected with one atomic load and no lock. SlowReads (slowest reads) and
// ReqTracer (slowest 2xx requests) both shard one of these per worker for
// the current window and fold the windows into one more at run level.
type reservoir[T any] struct {
	floor atomic.Int64 // 0 until the heap first fills
	mu    sync.Mutex
	heap  []ranked[T] // min-heap by key, capacity k
	_     [24]byte    // keep neighbouring shards off this cache line
}

// init sizes the reservoir. The backing array is allocated once, at capacity
// k, which is what keeps offer allocation-free.
func (r *reservoir[T]) init(k int) { r.heap = make([]ranked[T], 0, k) }

// offer folds v in if key ranks among the k highest seen since the last
// fold, and reports whether it was kept; a key no greater than the floor
// (zero included) never is. The value a kept one displaces is dropped.
// Never allocates.
func (r *reservoir[T]) offer(key int64, v T) bool {
	if key <= r.floor.Load() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.heap
	if len(h) < cap(h) {
		h = append(h, ranked[T]{key, v})
		r.heap = h
		siftUp(h, len(h)-1)
		if len(h) == cap(h) {
			r.floor.Store(h[0].key)
		}
		return true
	}
	if key <= h[0].key {
		return false // lost the race between the floor load and the lock
	}
	h[0] = ranked[T]{key, v}
	siftDown(h, 0)
	r.floor.Store(h[0].key)
	return true
}

// siftUp restores the min-heap property after an append.
func siftUp[T any](h []ranked[T], i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap property after replacing the root.
func siftDown[T any](h []ranked[T], i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].key < h[small].key {
			small = l
		}
		if r < len(h) && h[r].key < h[small].key {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// values appends the retained values to dst, in heap order.
func (r *reservoir[T]) values(dst []T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.heap {
		dst = append(dst, r.heap[i].v)
	}
	return dst
}

// foldInto closes this reservoir's window: everything retained is offered to
// run and the reservoir restarts empty, its floor reset so the next window
// re-learns its tail.
func (r *reservoir[T]) foldInto(run *reservoir[T]) {
	r.mu.Lock()
	window := r.heap
	r.heap = make([]ranked[T], 0, cap(window))
	r.floor.Store(0)
	r.mu.Unlock()
	for _, e := range window {
		run.offer(e.key, e.v)
	}
}
