package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stallingServer answers every operation in a fraction of a millisecond
// except one, during which the whole server stalls.
type stallingServer struct {
	mu      sync.Mutex
	stallAt int
	stall   time.Duration
}

func (s *stallingServer) do(_, i int) bool {
	s.mu.Lock()
	if i == s.stallAt {
		time.Sleep(s.stall)
	}
	s.mu.Unlock()
	return true
}

// An open loop must charge a stall to the requests that were due during it,
// not only to the one that hit it, and must report that it sent them late.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		gap     = 2 * time.Millisecond
		n       = 150
		stallAt = 30
		stall   = 120 * time.Millisecond
	)
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * gap
	}
	srv := &stallingServer{stallAt: stallAt, stall: stall}
	samples := runOpenLoop(arrivals, 2, 0, srv.do)
	if len(samples) != n {
		t.Fatalf("%d samples for %d arrivals", len(samples), n)
	}
	byDue := map[time.Duration]sample{}
	for _, s := range samples {
		byDue[s.due] = s
	}
	// Due 20 ms into the stall: at least 100 ms of it still lay ahead.
	victim := byDue[arrivals[stallAt+10]]
	if fromDue := victim.done - victim.due; fromDue < 80*time.Millisecond {
		t.Errorf("request due during the stall: latency from due time %v, want the stall's remainder (>= 80ms)", fromDue)
	}
	if fromSend, fromDue := victim.done-victim.sent, victim.done-victim.due; fromSend > fromDue/2 {
		t.Errorf("request due during the stall: %v from send to reply against %v from due time; timing from the send must hide most of the stall", fromSend, fromDue)
	}
	var lagMs []float64
	for _, s := range samples {
		lagMs = append(lagMs, float64(s.sent-s.due)/float64(time.Millisecond))
	}
	if lag := quantile(sortedCopy(lagMs), 0.99); lag < 80 {
		t.Errorf("generator lag p99 = %.1f ms, want it to report the %v stall", lag, stall)
	}
	// Well before the stall the generator kept its schedule.
	early := byDue[arrivals[5]]
	// (Half the stall is far above a loaded machine's scheduling jitter and
	// still well below the lag the stall itself causes.)
	if lag := early.sent - early.due; lag > stall/2 {
		t.Errorf("request before the stall sent %v late", lag)
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	samples := runClosedLoop(50*time.Millisecond, 3, 100, func(_, i int) bool {
		if i < 100 {
			t.Errorf("operation %d below the base of 100", i)
		}
		mu.Lock()
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return true
	})
	if maxInFlight > 3 {
		t.Errorf("%d operations in flight on 3 connections", maxInFlight)
	}
	if len(samples) < 10 {
		t.Errorf("only %d operations in 50 ms at 1 ms each on 3 connections", len(samples))
	}
}

func TestPoissonArrivalsAreSeededAndOrdered(t *testing.T) {
	a := poissonArrivals(rand.New(rand.NewSource(7)), 300, 2*time.Second)
	b := poissonArrivals(rand.New(rand.NewSource(7)), 300, 2*time.Second)
	if len(a) != len(b) || len(a) < 450 || len(a) > 750 {
		t.Fatalf("%d and %d arrivals at 300/s over 2 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}
