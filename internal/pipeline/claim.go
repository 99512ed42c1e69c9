package pipeline

import (
	"sync"

	"repro/internal/sched"
)

// claimQueue is the bounded hand-off between a Session's producers (Submit,
// or the streaming front end's ingest stage) and its worker pool. It holds
// at most depth queued jobs (the backpressure bound: a full queue blocks
// push, or fails tryPushAll), and the scheduling policy decides which queued
// job a worker claims — the streaming analogue of sched.RunBatches' claim
// disciplines:
//
//   - Dynamic: one shared FIFO, workers claim in arrival order.
//   - Static: the n-th admitted job is pinned to worker n mod W; no
//     balancing.
//   - WorkStealing: pinned like Static, but an idle worker steals the
//     oldest job from another worker's backlog, round-robin.
//
// A failed run needs no wake-up of its own: it sets its jobs' stop flag and
// the workers drain the queue by skipping them, which is also what unblocks
// a producer waiting in push.
type claimQueue struct {
	mu    sync.Mutex
	avail *sync.Cond // a job was queued, or the queue closed
	space *sync.Cond // a job was claimed

	kind    sched.Kind
	queues  []jobRing // one FIFO for Dynamic, one per worker otherwise
	queued  int
	depth   int
	nextSeq int // admission order; picks the slot under the pinned policies
	closed  bool
}

// jobRing is one slot's FIFO: a ring allocated once at the queue's depth, so
// admitting a job allocates nothing, and a claimed job's cell is cleared, so
// the queue never keeps a finished request's records and results reachable.
type jobRing struct {
	cells []*sjob
	head  int // index of the oldest job
	n     int // jobs held
}

func (r *jobRing) push(j *sjob) {
	r.cells[(r.head+r.n)%len(r.cells)] = j
	r.n++
}

func (r *jobRing) pop() *sjob {
	j := r.cells[r.head]
	r.cells[r.head] = nil
	r.head = (r.head + 1) % len(r.cells)
	r.n--
	return j
}

func newClaimQueue(kind sched.Kind, workers, depth int) *claimQueue {
	n := workers
	if kind == sched.Dynamic {
		n = 1
	}
	q := &claimQueue{kind: kind, queues: make([]jobRing, n), depth: depth}
	for i := range q.queues {
		// Under the pinned policies one slow worker's slot can hold the whole
		// backlog, so every slot is sized to the shared bound.
		q.queues[i].cells = make([]*sjob, depth)
	}
	q.avail = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

// push blocks until there is room for j. It is the streaming front end's
// entry point: one producer, which stops pushing before it closes the queue.
func (q *claimQueue) push(j *sjob) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.queued >= q.depth {
		q.space.Wait()
	}
	q.enqueue(j)
}

// tryPushAll is the admission-control entry point: it enqueues every item
// or none, without blocking. It fails once the queue is closed (draining)
// or when the items would not all fit under the depth bound — the caller
// turns that into a queue-full rejection instead of queueing unboundedly.
func (q *claimQueue) tryPushAll(js []sjob) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.queued+len(js) > q.depth {
		return false
	}
	for i := range js {
		q.enqueue(&js[i])
	}
	return true
}

// enqueue appends j to the next admission slot (caller holds q.mu and has
// checked q.queued < q.depth).
func (q *claimQueue) enqueue(j *sjob) {
	slot := 0
	if q.kind != sched.Dynamic {
		slot = q.nextSeq % len(q.queues)
	}
	q.nextSeq++
	q.queues[slot].push(j)
	q.queued++
	q.avail.Broadcast()
}

// pop blocks until worker w claims a job. stolen reports that the job came
// from another worker's backlog (WorkStealing only); ok is false once the
// queue is closed and drained.
func (q *claimQueue) pop(w int) (j *sjob, stolen, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		own := 0
		if q.kind != sched.Dynamic {
			own = w
		}
		if q.queues[own].n > 0 {
			return q.take(own), false, true
		}
		if q.kind == sched.WorkStealing {
			for off := 1; off < len(q.queues); off++ {
				s := (w + off) % len(q.queues)
				if q.queues[s].n > 0 {
					return q.take(s), true, true
				}
			}
		}
		if q.closed && q.queued == 0 {
			return nil, false, false
		}
		q.avail.Wait()
	}
}

// take removes the oldest job from slot (caller holds q.mu).
func (q *claimQueue) take(slot int) *sjob {
	v := q.queues[slot].pop()
	q.queued--
	q.space.Broadcast()
	if q.closed && q.queued == 0 {
		// Wake workers pinned to other (now permanently empty) slots.
		q.avail.Broadcast()
	}
	return v
}

// close marks the end of production; drained workers exit.
func (q *claimQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.avail.Broadcast()
}
