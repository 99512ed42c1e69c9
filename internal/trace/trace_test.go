package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBeginEnd(t *testing.T) {
	r := NewRecorder(2)
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	r.Record(0, RegionCluster, t0, time.Since(t0))
	spans := r.Spans(0)
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	if spans[0].Region != RegionCluster {
		t.Errorf("region = %q", spans[0].Region)
	}
	if spans[0].Dur < time.Millisecond {
		t.Errorf("dur = %v, want ≥ 1ms", spans[0].Dur)
	}
	if len(r.Spans(1)) != 0 {
		t.Error("worker 1 has phantom spans")
	}
}

func TestRecordDirect(t *testing.T) {
	r := NewRecorder(1)
	r.Record(0, RegionExtend, time.Now(), 5*time.Millisecond)
	if got := r.Spans(0)[0].Dur; got != 5*time.Millisecond {
		t.Errorf("dur = %v", got)
	}
}

func TestRegionTotals(t *testing.T) {
	r := NewRecorder(2)
	now := time.Now()
	r.Record(0, RegionCluster, now, 10*time.Millisecond)
	r.Record(0, RegionCluster, now, 20*time.Millisecond)
	r.Record(1, RegionExtend, now, 40*time.Millisecond)
	totals := r.RegionTotals()
	if got := totals[0][RegionCluster]; got != 30*time.Millisecond {
		t.Errorf("worker 0 cluster total = %v", got)
	}
	if got := totals[1][RegionExtend]; got != 40*time.Millisecond {
		t.Errorf("worker 1 extend total = %v", got)
	}
}

func TestShares(t *testing.T) {
	r := NewRecorder(1)
	now := time.Now()
	r.Record(0, RegionThresholdC, now, 60*time.Millisecond)
	r.Record(0, RegionCluster, now, 30*time.Millisecond)
	r.Record(0, RegionIO, now, 900*time.Millisecond)
	r.Record(0, RegionMinimizer, now, 10*time.Millisecond)
	shares := r.Shares(RegionIO)
	if len(shares) != 3 {
		t.Fatalf("%d shares, want 3", len(shares))
	}
	if shares[0].Region != RegionThresholdC {
		t.Errorf("top region = %q, want threshold_c", shares[0].Region)
	}
	if shares[0].Percent != 60 {
		t.Errorf("threshold_c share = %f, want 60", shares[0].Percent)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s.Percent
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("shares sum to %f", sum)
	}
}

func TestSharesEmpty(t *testing.T) {
	r := NewRecorder(1)
	if shares := r.Shares(); len(shares) != 0 {
		t.Errorf("shares of empty recorder: %v", shares)
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	r := NewRecorder(2)
	now := time.Now()
	r.Record(0, RegionCluster, now, time.Millisecond)
	r.Record(1, RegionExtend, now, 2*time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want 3 (header + 2)", len(lines))
	}
	if lines[0] != "worker,region,start_us,dur_us" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,cluster_seeds,") {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestNewRecorderMinWorkers(t *testing.T) {
	r := NewRecorder(0)
	if r.Workers() != 1 {
		t.Errorf("workers = %d, want 1", r.Workers())
	}
}

func TestGrow(t *testing.T) {
	r := NewRecorder(2)
	r.Grow(5)
	if r.Workers() != 5 {
		t.Fatalf("workers = %d, want 5", r.Workers())
	}
	r.Grow(3) // never shrinks
	if r.Workers() != 5 {
		t.Fatalf("workers after smaller Grow = %d, want 5", r.Workers())
	}
	r.Record(4, RegionEmit, time.Now(), time.Microsecond)
	if len(r.Spans(4)) != 1 {
		t.Errorf("grown buffer did not record: %d spans", len(r.Spans(4)))
	}
}

// TestNilRecorderIsFree: the disabled recorder is a nil pointer the kernels
// call into unconditionally, so it must neither crash nor allocate.
func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	now := time.Now()
	if n := testing.AllocsPerRun(100, func() {
		r.Grow(4)
		r.Record(3, RegionCluster, now, time.Millisecond)
	}); n != 0 {
		t.Errorf("nil recorder allocates %.0f times per Grow+Record, want 0", n)
	}
}

// TestConcurrentRecordMerge locks in the recorder's concurrency contract
// under the race detector: the record path takes no locks, so concurrent
// workers recording on distinct worker indices must be race-free and lose
// nothing. (The name dates from when recorders could also be merged.)
func TestConcurrentRecordMerge(t *testing.T) {
	const (
		workers       = 8
		spansPerActor = 200
	)
	shared := NewRecorder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPerActor; i++ {
				if i%2 == 0 {
					t0 := time.Now()
					shared.Record(w, RegionExtend, t0, time.Since(t0))
				} else {
					shared.Record(w, RegionCluster, time.Now(), time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if got := len(shared.Spans(w)); got != spansPerActor {
			t.Errorf("worker %d: %d spans, want %d", w, got, spansPerActor)
		}
	}
}
