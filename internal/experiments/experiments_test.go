package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/autotune"
	"repro/internal/gbwt"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testSuite builds a suite at a tiny scale so the full experiment battery
// runs in seconds.
func testSuite(t testing.TB) (*Suite, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	s := NewSuite(Config{Scale: 0.02, Threads: 2, Repeats: 1, Out: &buf})
	return s, &buf
}

// testSpace is a reduced tuning grid.
func testSpace() autotune.Space {
	return autotune.Space{
		Schedulers: []sched.Kind{sched.Dynamic, sched.WorkStealing},
		BatchSizes: []int{8, 64},
		Capacities: []int{64, 1024},
	}
}

func TestTable1(t *testing.T) {
	s, buf := testSuite(t)
	rows, err := s.Table1("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	repoParent := rows[2]
	repoProxy := rows[3]
	if repoParent.Lines == 0 || repoProxy.Lines == 0 {
		t.Error("zero line counts")
	}
	if repoProxy.Lines >= repoParent.Lines {
		t.Error("proxy not smaller than parent")
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("no header printed")
	}
}

func TestFigure2(t *testing.T) {
	s, _ := testSuite(t)
	var csv bytes.Buffer
	rec, err := s.Figure2(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workers() != 16 {
		t.Errorf("workers = %d", rec.Workers())
	}
	if !strings.HasPrefix(csv.String(), "worker,region,") {
		t.Error("no CSV timeline")
	}
}

func TestFigure3(t *testing.T) {
	// Region-share assertions need enough reads per input to rise above
	// scheduling noise (the suite default of 0.02 leaves A-human at 30
	// reads).
	var buf bytes.Buffer
	s := NewSuite(Config{Scale: 0.08, Threads: 2, Repeats: 1, Out: &buf})
	rows, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// process_until_threshold_c must be a dominant region for every input —
	// the paper's headline characterisation. Under CPU contention the exact
	// ordering of the top regions jitters at test scale, so assert a share
	// floor rather than strict rank (the scale-1.0 experiment shows 45-51%).
	for _, r := range rows {
		if len(r.Shares) == 0 {
			t.Fatalf("%s: no shares", r.Input)
		}
		var thresholdC float64
		for _, sh := range r.Shares {
			if sh.Region == "process_until_threshold_c" {
				thresholdC = sh.Percent
			}
		}
		if thresholdC < 25 {
			t.Errorf("%s: process_until_threshold_c only %.1f%% of runtime", r.Input, thresholdC)
		}
	}
}

func TestFigure4(t *testing.T) {
	s, _ := testSuite(t)
	points, err := s.Figure4([]int{1, 8, 48})
	if err != nil {
		t.Fatal(err)
	}
	// Large inputs scale better at 48 threads than the small A-human.
	speedupAt := func(input string, th int) float64 {
		for _, p := range points {
			if p.Input == input && p.Threads == th {
				return p.Speedup
			}
		}
		t.Fatalf("missing point %s@%d", input, th)
		return 0
	}
	if sA, sD := speedupAt("A-human", 48), speedupAt("D-HPRC", 48); sA >= sD {
		t.Errorf("A-human speedup %.1f not below D-HPRC %.1f", sA, sD)
	}
	if s1 := speedupAt("B-yeast", 1); s1 != 1 {
		t.Errorf("1-thread speedup = %f", s1)
	}
}

func TestTable4(t *testing.T) {
	s, _ := testSuite(t)
	td, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	sum := td.FrontEnd + td.BackEnd + td.BadSpec + td.Retiring
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("top-down sums to %f", sum)
	}
	// Retiring should dominate, as in the paper (43.4%).
	if td.Retiring < td.FrontEnd || td.Retiring < td.BadSpec {
		t.Errorf("retiring %.2f not dominant: %+v", td.Retiring, td)
	}
}

func TestFunctionalValidationAll(t *testing.T) {
	s, buf := testSuite(t)
	reps, err := s.FunctionalValidationAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if !rep.Match() {
			t.Errorf("input %d failed: %s", i, rep)
		}
	}
	if !strings.Contains(buf.String(), "PASS (100% match)") {
		t.Error("no PASS lines printed")
	}
}

func TestTable5(t *testing.T) {
	s, _ := testSuite(t)
	res, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cosine < 0.99 {
		t.Errorf("cosine similarity %.4f below 0.99 (paper: 0.9996)", res.Cosine)
	}
	if res.Proxy.Instr == 0 || res.Parent.Instr == 0 {
		t.Error("zero instruction counts")
	}
	// Instruction counts should be similar (same kernels).
	ratio := float64(res.Proxy.Instr) / float64(res.Parent.Instr)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("instruction ratio %.2f outside [0.8, 1.25]", ratio)
	}
}

func TestTable6(t *testing.T) {
	// Timing comparison needs a larger sample and min-of-N to rise above
	// timer jitter.
	var buf bytes.Buffer
	s := NewSuite(Config{Scale: 0.08, Threads: 2, Repeats: 4, Out: &buf})
	rows, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ProxySeconds <= 0 || r.ParentSeconds <= 0 {
			t.Errorf("%s: nonpositive times", r.Input)
		}
		// The proxy should be within a modest factor of the parent's
		// critical-function time (paper: ≤8.77%; we allow slack for timer
		// noise at the test's tiny scale).
		if r.PercentDiff < -60 || r.PercentDiff > 60 {
			t.Errorf("%s: %%diff %.1f out of range", r.Input, r.PercentDiff)
		}
	}
}

func TestFigure5AndTable7(t *testing.T) {
	s, _ := testSuite(t)
	points, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	oomCount := 0
	for _, p := range points {
		if p.OOM {
			oomCount++
			if p.Input != "D-HPRC" {
				t.Errorf("unexpected OOM for %s on %s", p.Input, p.Machine)
			}
		}
	}
	if oomCount != 2 {
		t.Errorf("%d OOM entries, want 2 (chi-arm and chi-intel on D)", oomCount)
	}
	rows, err := s.Table7()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		amd, ok := r.Seconds["local-amd"]
		if !ok {
			t.Fatalf("%s: no local-amd entry", r.Input)
		}
		for name, sec := range r.Seconds {
			if sec < amd-1e-12 {
				t.Errorf("%s: %s (%.3f) beats local-amd (%.3f)", r.Input, name, sec, amd)
			}
		}
		if arm, ok := r.Seconds["chi-arm"]; ok {
			for name, sec := range r.Seconds {
				if sec > arm+1e-12 {
					t.Errorf("%s: %s (%.3f) slower than chi-arm (%.3f)", r.Input, name, sec, arm)
				}
			}
		}
	}
}

func TestFigure6(t *testing.T) {
	s, _ := testSuite(t)
	points, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("%d points, want 16", len(points))
	}
	// A point is labelled with the capacity it asked for; CachedGBWT rounds up
	// to a power of two, so the two must agree (0 is the no-cache baseline).
	for _, p := range points {
		if got := gbwt.NewCached(nil, p.Capacity).Capacity(); got != p.Capacity {
			t.Errorf("%s: point labelled capacity %d ran with %d", p.Scheduler, p.Capacity, got)
		}
	}
	// Caching must beat no caching somewhere in the sweep: the one ordering
	// the wall clock shows with margin. Which cached capacity comes out on top
	// is not one — on two cores every cached point sits at 1.1–1.5×, so single
	// runs order them by noise.
	bySched := map[string]float64{}
	for _, p := range points {
		bySched[p.Scheduler.String()] = max(bySched[p.Scheduler.String()], p.Speedup)
	}
	for kind, best := range bySched {
		if best <= 1.0 {
			t.Errorf("%s: caching never beats no-cache (best %.2f)", kind, best)
		}
	}
	// The degradation beyond 4096 (paper: maxima at ≤4096) comes from the
	// machine model's working-set penalty, which is deterministic: at equal
	// serial work, 16384 must project slower than 4096.
	spec := workload.CHPRC()
	b, recs, err := s.Captured(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.LocalIntel
	project := func(capacity int) float64 {
		sec, err := m.SimTime(machine.Workload{
			SerialRefSec: 1,
			Reads:        len(recs),
			WorkingSetMB: b.WorkingSetMB(capacity, m.MaxThreads()),
			MemGB:        spec.MemGB,
		}, m.MaxThreads())
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	if big, moderate := project(16384), project(4096); big <= moderate {
		t.Errorf("capacity 16384 projects to %.4fs, no slower than 4096 at %.4fs: no working-set penalty", big, moderate)
	}
}

func TestFigure7AndTable8(t *testing.T) {
	s, buf := testSuite(t)
	cells, err := s.Figure7AndTable8(testSpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("%d cells, want 16 (4 inputs × 4 machines)", len(cells))
	}
	for _, c := range cells {
		if c.Speedup < 1.0-1e-9 {
			t.Errorf("%s @ %s: best (%.3f) slower than default (%.3f)",
				c.Input, c.Machine, c.BestSeconds, c.DefaultSeconds)
		}
	}
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("no geomean summary printed")
	}
}

func TestFigure8(t *testing.T) {
	s, _ := testSuite(t)
	var csv bytes.Buffer
	anova, err := s.Figure8(testSpace(), &csv)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []string{"capacity", "batch", "scheduler"} {
		a, ok := anova[factor]
		if !ok {
			t.Fatalf("missing ANOVA factor %s", factor)
		}
		if a.P < 0 || a.P > 1 {
			t.Errorf("%s: p=%f", factor, a.P)
		}
	}
	if !strings.HasPrefix(csv.String(), "scheduler,batch,") {
		t.Error("no heat map CSV")
	}
}

func TestSuiteCaching(t *testing.T) {
	s, _ := testSuite(t)
	a1, err := s.Bundle(workload.AHuman())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Bundle(workload.AHuman())
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("bundle not cached")
	}
}

func TestFigureSVGs(t *testing.T) {
	s, _ := testSuite(t)
	points5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Figure5SVG(points5, "B-yeast", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") || !strings.Contains(buf.String(), "local-amd") {
		t.Error("Figure 5 SVG malformed")
	}
	if err := Figure5SVG(points5, "nonexistent", &buf); err == nil {
		t.Error("unknown input accepted")
	}

	points6, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure6SVG(points6, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "work-stealing") {
		t.Error("Figure 6 SVG missing scheduler series")
	}

	cells, err := s.Figure7AndTable8(testSpace())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure7SVG(cells, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tuned") {
		t.Error("Figure 7 SVG missing legend")
	}
	if err := Figure7SVG(nil, &buf); err == nil {
		t.Error("empty cells accepted")
	}
}
