package gbwt

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSnapshotHitZeroAllocUnderProfiling re-runs the snapshot hit-path
// allocation guard with the continuous profiler capturing and pprof labels
// applied — the configuration every production run now uses. Labels are set
// at sub-batch granularity, so turning profiling on must not add a single
// allocation to the per-record path.
func TestSnapshotHitZeroAllocUnderProfiling(t *testing.T) {
	rec, err := obs.StartProfiles(t.TempDir(), time.Hour)
	if err != nil {
		t.Skipf("CPU profiler unavailable (another capture active?): %v", err)
	}
	defer func() {
		if err := rec.Stop(); err != nil {
			t.Errorf("stopping profiler: %v", err)
		}
	}()

	g := mustGBWT(t, epochPaths())
	c := NewShared(g, EpochConfig{Capacity: 4})
	c.note(1)
	c.note(4)
	c.Publish()
	r := c.NewReader(0, 0)
	if rec, _ := r.snap.find(1); rec == nil {
		t.Fatal("node 1 not resident; cannot measure the hit path")
	}

	labels := obs.NewProfLabels(obs.ClassBatch, 1)
	labels.ApplyMap(0)
	defer labels.Clear()

	allocs := testing.AllocsPerRun(200, func() {
		if r.Record(1) == nil {
			t.Fatal("hit path returned nil")
		}
		r.Record(4)
	})
	if allocs != 0 {
		t.Errorf("snapshot hit path allocates %.1f per run with profiling on, want 0", allocs)
	}
}
