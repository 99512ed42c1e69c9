package pipeline_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
)

// TestRunRegistryAccounting drives a real Run with a registry. Run and the
// Session it is built on both hold handles into that registry, so every
// pipeline/scheduler series must have exactly one writer: a count written by
// both layers would come out doubled here. A stream run must also leave the
// request-scoped serve_* series unregistered.
func TestRunRegistryAccounting(t *testing.T) {
	f, recs := fixture(t, 0.05)
	const workers = 3
	reg := obs.NewRegistry(workers + 2)
	m, err := core.NewMapper(f, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
		Workers: workers, BatchSize: 4, Scheduler: sched.WorkStealing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != len(recs) || st.Batches != (len(recs)+3)/4 {
		t.Fatalf("stats report %d reads in %d batches for %d records", st.Reads, st.Batches, len(recs))
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		obs.MetricPipelineReads:   st.Reads,
		obs.MetricPipelineBatches: st.Batches,
		obs.MetricSchedClaims:     st.Batches,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Counters[obs.MetricSchedSteals]; got != st.Sched.Steals {
		t.Errorf("%s = %d, Stats.Sched.Steals = %d", obs.MetricSchedSteals, got, st.Sched.Steals)
	}
	if got := snap.Histograms[obs.MetricStageMap].Count; got != int64(st.Batches) {
		t.Errorf("%s holds %d samples for %d batches", obs.MetricStageMap, got, st.Batches)
	}
	if got := snap.Gauges[obs.MetricPipelineInFlight]; got != 0 {
		t.Errorf("%s = %d after the run, want 0", obs.MetricPipelineInFlight, got)
	}
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "serve_") {
			t.Errorf("stream run registered %s", name)
		}
	}
}

// countingSource yields recs, counting the calls; a non-zero failAt makes
// the failAt-th call (and every later one) fail.
type countingSource struct {
	recs   []seeds.ReadSeeds
	failAt int
	calls  int
}

var errSourceBroke = errors.New("source broke")

func (s *countingSource) Next() (*seeds.ReadSeeds, error) {
	s.calls++
	if s.failAt > 0 && s.calls >= s.failAt {
		return nil, errSourceBroke
	}
	if s.calls > len(s.recs) {
		return nil, io.EOF
	}
	return &s.recs[s.calls-1], nil
}

// TestFailedRunWindsDown covers the shared stop flag: when the source or the
// emitter fails early in a workload much larger than the in-flight window,
// Run must return that error, stop reading the source (within the window,
// not at its end), and leave no goroutine behind — pool workers and ingest
// alike.
func TestFailedRunWindsDown(t *testing.T) {
	f, recs := fixture(t, 0.1)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, batch, depth = 2, 2, 2
	if len(recs) < 20*depth*batch {
		t.Fatalf("workload of %d records does not dwarf the %d-record window", len(recs), depth*batch)
	}
	for _, tc := range []struct {
		name   string
		failAt int // source call that fails; 0 = never
		emit   func() pipeline.Emitter
		want   string
	}{
		{"source error", 4*depth*batch + 1, func() pipeline.Emitter { return discardEmitter{} }, errSourceBroke.Error()},
		{"emitter error", 0, func() pipeline.Emitter { return &failEmitter{n: 3} }, "emit 3 failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range []sched.Kind{sched.Dynamic, sched.Static, sched.WorkStealing} {
				before := runtime.NumGoroutine()
				src := &countingSource{recs: recs, failAt: tc.failAt}
				st, err := pipeline.Run(m, src, tc.emit(), pipeline.Options{
					Workers: workers, BatchSize: batch, Depth: depth, Scheduler: kind,
				})
				if st != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%v: Run = %v, %v; want the %q failure", kind, st, err, tc.want)
				}
				if tc.failAt > 0 && src.calls != tc.failAt {
					t.Errorf("%v: source called %d times, failed on call %d", kind, src.calls, tc.failAt)
				}
				if src.calls > len(recs)/2 {
					t.Errorf("%v: source read %d of %d records after an early failure", kind, src.calls, len(recs))
				}
				// Run waits for the pool; ingest's last act is closing the
				// hand-off, so its exit trails Run's return by an instant.
				waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
			}
		})
	}
}
