package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation of a load loop. Times are offsets from
// the loop's start. In a closed loop due equals sent.
type sample struct {
	due  time.Duration // when the schedule wanted it sent
	sent time.Duration // when a connection actually began sending it
	done time.Duration
	ok   bool
}

// runClosedLoop has conns callers issue operations back to back for dur:
// each waits for its reply before its next request, so a slower system is
// offered less load. do(conn, i) performs operation base+i on connection
// conn and reports success. Operations begun before dur elapses complete.
func runClosedLoop(dur time.Duration, conns, base int, do func(conn, i int) bool) []sample {
	var next atomic.Int64
	perConn := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= dur {
					return
				}
				i := int(next.Add(1)) - 1
				ok := do(conn, base+i)
				perConn[conn] = append(perConn[conn], sample{due: sent, sent: sent, done: time.Since(start), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	return flatten(perConn)
}

// poissonArrivals draws the arrival offsets of independent users at the
// given mean rate over dur: exponential gaps, fixed by the rng's seed before
// the first request is sent.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// runOpenLoop sends one operation per arrival on schedule, whatever the
// system's pace, dispatching over conns connections: each connection takes
// the next arrival, sleeps until it is due, and sends. When every connection
// is still waiting on a reply at an arrival's due time the request goes out
// late; its latency is counted from the due time all the same (done - due),
// and sent - due is how late the generator ran.
func runOpenLoop(arrivals []time.Duration, conns, base int, do func(conn, i int) bool) []sample {
	var next atomic.Int64
	perConn := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				due := arrivals[i]
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := do(conn, base+i)
				perConn[conn] = append(perConn[conn], sample{due: due, sent: sent, done: time.Since(start), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	return flatten(perConn)
}

func flatten(perConn [][]sample) []sample {
	var out []sample
	for _, s := range perConn {
		out = append(out, s...)
	}
	return out
}
