package autotune

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/workload"
)

// tinySpace keeps sweep tests fast.
func tinySpace() Space {
	return Space{
		Schedulers: []sched.Kind{sched.Dynamic, sched.WorkStealing},
		BatchSizes: []int{4, 16},
		Capacities: []int{64, 512},
	}
}

func fixture(t testing.TB) (*gbz.File, []seeds.ReadSeeds, *workload.Bundle) {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	return b.GBZ(), recs, b
}

func TestCombosIncludeDefault(t *testing.T) {
	combos := tinySpace().Combos()
	want := 2*2*2 + 1 // grid + appended default
	if len(combos) != want {
		t.Fatalf("%d combos, want %d", len(combos), want)
	}
	found := false
	for _, c := range combos {
		if c == DefaultCombo() {
			found = true
		}
	}
	if !found {
		t.Error("default combo missing")
	}
	// A space containing the default must not duplicate it.
	s := DefaultSpace()
	count := 0
	for _, c := range s.Combos() {
		if c == DefaultCombo() {
			count++
		}
	}
	if count != 1 {
		t.Errorf("default combo appears %d times", count)
	}
}

// TestSweptCapacitiesAreInEffect: CachedGBWT rounds a requested capacity up
// to a power of two, so a swept value that is not one would label its §VII-B
// point with a capacity that never ran. Every capacity the default space (and
// so every Combo, the default included) asks for must be the one it gets.
func TestSweptCapacitiesAreInEffect(t *testing.T) {
	for _, c := range DefaultSpace().Combos() {
		if got := gbwt.NewCached(nil, c.Capacity).Capacity(); got != c.Capacity {
			t.Errorf("%s: requested capacity %d, table holds %d", c, c.Capacity, got)
		}
	}
}

func TestComboString(t *testing.T) {
	c := Combo{Scheduler: sched.Dynamic, BatchSize: 128, Capacity: 1024}
	if got := c.String(); got != "openmp-dynamic/bs128/cc1024" {
		t.Errorf("String = %q", got)
	}
}

func TestRunGridAndReports(t *testing.T) {
	f, recs, b := fixture(t)
	var progressed int
	g, err := RunGrid(f, recs, 2, tinySpace(), 1, func(done, total int, m Measurement) {
		progressed++
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Input = b.Spec.Name
	if len(g.Measurements) != len(tinySpace().Combos()) {
		t.Fatalf("%d measurements", len(g.Measurements))
	}
	if progressed != len(g.Measurements) {
		t.Errorf("progress called %d times", progressed)
	}
	for _, m := range g.Measurements {
		if m.Makespan <= 0 {
			t.Fatalf("combo %s has zero makespan", m.Combo)
		}
	}
	best, err := g.Best()
	if err != nil {
		t.Fatal(err)
	}
	def, err := g.Default()
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan > def.Makespan {
		t.Error("best slower than default")
	}
	sp, err := g.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1 {
		t.Errorf("speedup %f < 1", sp)
	}
}

func TestEmptyGridErrors(t *testing.T) {
	g := &Grid{}
	if _, err := g.Best(); err == nil {
		t.Error("empty Best accepted")
	}
	if _, err := g.Default(); err == nil {
		t.Error("empty Default accepted")
	}
	if _, err := g.DefaultIndex(); err == nil {
		t.Error("empty DefaultIndex accepted")
	}
}

func TestANOVAByFactor(t *testing.T) {
	f, recs, _ := fixture(t)
	g, err := RunGrid(f, recs, 2, tinySpace(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.ANOVAByFactor()
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []string{"scheduler", "batch", "capacity"} {
		a, ok := res[factor]
		if !ok {
			t.Fatalf("missing factor %s", factor)
		}
		if a.P < 0 || a.P > 1 {
			t.Errorf("%s: p = %f", factor, a.P)
		}
		if a.F < 0 {
			t.Errorf("%s: F = %f", factor, a.F)
		}
	}
}

func TestProjection(t *testing.T) {
	f, recs, b := fixture(t)
	g, err := RunGrid(f, recs, 2, tinySpace(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Input = b.Spec.Name
	for _, m := range machine.All() {
		p, err := Project(g, b, m, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		if p.OOM {
			t.Fatalf("%s OOM on A-human", m.Name)
		}
		if len(p.Seconds) != len(g.Measurements) {
			t.Fatalf("%s: %d projections", m.Name, len(p.Seconds))
		}
		for i, s := range p.Seconds {
			if s <= 0 {
				t.Fatalf("%s combo %d: projected %f", m.Name, i, s)
			}
		}
		if _, err := p.BestIndex(); err != nil {
			t.Fatal(err)
		}
	}
	// D-HPRC must OOM on the 256 GB machines.
	bigBundle := *b
	spec := workload.DHPRC()
	bigBundle.Spec = spec
	p, err := Project(g, &bigBundle, machine.ChiARM, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OOM {
		t.Error("D-HPRC did not OOM on chi-arm")
	}
	if _, err := p.BestIndex(); err == nil {
		t.Error("BestIndex on OOM projection accepted")
	}
	// Invalid local speedup.
	if _, err := Project(g, b, machine.LocalAMD, 0); err == nil {
		t.Error("zero local speedup accepted")
	}
}

func TestCapacityInteractsWithL3(t *testing.T) {
	// The same grid projected on a small-L3 and a big-L3 machine: the
	// spread between capacity extremes must be wider on the small-L3 box —
	// the paper's finding that powerful hardware benefits least from
	// tuning.
	f, recs, b := fixture(t)
	space := Space{
		Schedulers: []sched.Kind{sched.Dynamic},
		BatchSizes: []int{16},
		Capacities: []int{64, 65536},
	}
	// Minimum of five runs per capacity: the two makespans are ≈1.5 ms and
	// ≈2.5 ms, and one descheduled cc64 run (measured above 1.3× cc65536)
	// inverts the ordering below whatever the machine model says.
	g, err := RunGrid(f, recs, 2, space, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(m machine.Machine) float64 {
		p, err := Project(g, b, m, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := p.Seconds[0], p.Seconds[0]
		for _, s := range p.Seconds[:len(space.Capacities)] {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		return hi / lo
	}
	if spread(machine.LocalIntel) <= spread(machine.LocalAMD) {
		t.Errorf("local-intel spread %.3f not above local-amd %.3f",
			spread(machine.LocalIntel), spread(machine.LocalAMD))
	}
}

func TestWriteHeatmapCSV(t *testing.T) {
	f, recs, b := fixture(t)
	space := tinySpace()
	g, err := RunGrid(f, recs, 2, space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHeatmapCSV(&buf, g, nil, space); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + schedulers*batches rows
	if want := 1 + 2*2; len(lines) != want {
		t.Fatalf("%d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "scheduler,batch,cc64,cc512") {
		t.Errorf("header = %q", lines[0])
	}
	// With projection.
	p, err := Project(g, b, machine.ChiIntel, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteHeatmapCSV(&buf, g, p, space); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 5 {
		t.Error("projected heatmap malformed")
	}
}
