package pipeline

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestClaimQueueRing drives the queue directly, past the end of its rings:
// every policy hands jobs out oldest first from the slot it claims, a
// push/pop pair allocates nothing once the queue exists, and a claimed job is
// not kept reachable by the cell it left.
func TestClaimQueueRing(t *testing.T) {
	const workers, depth = 3, 4
	for _, kind := range []sched.Kind{sched.Dynamic, sched.Static, sched.WorkStealing} {
		t.Run(kind.String(), func(t *testing.T) {
			q := newClaimQueue(kind, workers, depth)
			// Rounds of "fill to depth, drain" with depth not a multiple of the
			// slot count walk every ring's head across its end several times.
			// base numbers the jobs in admission order.
			next := 0
			for round := 0; round < 3*depth; round++ {
				fill := 1 + round%depth
				jobs := make([]sjob, fill)
				for i := range jobs {
					jobs[i].base = next + i
				}
				if !q.tryPushAll(jobs) {
					t.Fatalf("round %d: %d jobs refused by an empty queue of depth %d", round, fill, depth)
				}
				if q.tryPushAll(make([]sjob, depth-fill+1)) {
					t.Fatalf("round %d: queue admitted past its depth", round)
				}
				got := make(map[int]bool)
				lastFrom := make(map[int]int) // slot a job was pinned to -> last base claimed from it
				for claimed := 0; claimed < fill; claimed++ {
					// Static never balances: ask as the worker the oldest
					// queued job is pinned to. The others claim as worker 0,
					// which steals under WorkStealing.
					w := 0
					if kind == sched.Static {
						w = (next + claimed) % workers
					}
					j, stolen, ok := q.pop(w)
					if !ok {
						t.Fatalf("round %d: pop reported a closed queue", round)
					}
					slot := 0
					if kind != sched.Dynamic {
						slot = j.base % workers // admission order == base here
					}
					if stolen != (kind == sched.WorkStealing && slot != w) {
						t.Errorf("round %d: job %d from slot %d claimed by worker %d: stolen = %v", round, j.base, slot, w, stolen)
					}
					if last, seen := lastFrom[slot]; seen && j.base < last {
						t.Errorf("round %d: slot %d handed out job %d after job %d", round, slot, j.base, last)
					}
					lastFrom[slot] = j.base
					if kind == sched.Dynamic && j.base != next+claimed {
						t.Errorf("round %d: claim %d is job %d, want %d", round, claimed, j.base, next+claimed)
					}
					got[j.base] = true
				}
				for i := 0; i < fill; i++ {
					if !got[next+i] {
						t.Errorf("round %d: job %d was never claimed", round, next+i)
					}
				}
				next += fill
			}

			// The worker the newest job is pinned to, whatever the policy.
			owner := func() int { return (q.nextSeq - 1) % workers }
			j := &sjob{}
			if n := testing.AllocsPerRun(100, func() {
				q.push(j)
				q.pop(owner())
			}); n != 0 {
				t.Errorf("a push/pop pair allocates %v objects, want 0", n)
			}

			collected := make(chan struct{})
			func() {
				j := &sjob{}
				runtime.SetFinalizer(j, func(*sjob) { close(collected) })
				q.push(j)
				q.pop(owner())
			}()
			deadline := time.After(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-deadline:
					t.Fatal("a claimed job is still reachable from the queue")
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
}
