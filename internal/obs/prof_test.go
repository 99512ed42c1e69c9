package obs

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestProfileRecorderSegments drives the recorder through an explicit rotation
// (the ticker is set far out) and feeds the two labelled CPU segments to
// `go tool pprof -proto` — the merge `make pgo-capture` distills default.pgo
// with — which must accept them and emit one gzipped profile.
func TestProfileRecorderSegments(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProfiles(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	labels := NewProfLabels(ClassBatch, 2)
	labels.ApplyMap(0)
	spin(20 * time.Millisecond)
	p.rotate()
	labels.ApplyEmit()
	spin(20 * time.Millisecond)
	labels.Clear()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if p.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", p.Dir(), dir)
	}
	for _, name := range []string{"heap-0000.pb.gz", "heap-0001.pb.gz"} {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() == 0 {
			t.Errorf("boundary heap profile %s missing or empty: %v", name, err)
		}
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-proto",
		filepath.Join(dir, "cpu-0000.pb.gz"), filepath.Join(dir, "cpu-0001.pb.gz"))
	cmd.Stderr = &stderr
	merged, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool pprof -proto: %v\n%s", err, stderr.String())
	}
	zr, err := gzip.NewReader(bytes.NewReader(merged))
	if err != nil {
		t.Fatalf("merged profile is not a gzip stream (%d bytes): %v", len(merged), err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("merged profile decompresses to %d bytes: %v", len(body), err)
	}
}

// sinkFloat keeps spin's arithmetic from being optimised away.
var sinkFloat float64

// spin burns CPU for roughly d so SIGPROF has something to sample.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	sinkFloat = x
}

func TestStartProfilesErrors(t *testing.T) {
	if _, err := StartProfiles("", time.Hour); err == nil {
		t.Error("empty directory accepted")
	}
	// Only one CPU profile may be active per process: a second recorder
	// must fail cleanly while the first holds the profiler.
	dir := t.TempDir()
	p, err := StartProfiles(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if p2, err := StartProfiles(t.TempDir(), time.Hour); err == nil {
		p2.Stop()
		t.Error("second concurrent recorder accepted")
	}
}

// TestProfLabelsNil: every method on a nil *ProfLabels is a no-op, so call
// sites need no guards (mirroring the nil-safe registry handles).
func TestProfLabelsNil(t *testing.T) {
	var p *ProfLabels
	p.ApplyMap(3)
	p.ApplyIngest()
	p.ApplyEmit()
	p.ApplyExtract()
	p.Clear()
}

// TestProfLabelsClamp: out-of-range workers clamp onto the prebuilt contexts
// instead of panicking, and a non-positive pool still gets one slot.
func TestProfLabelsClamp(t *testing.T) {
	p := NewProfLabels(ClassServe, 2)
	p.ApplyMap(-1)
	p.ApplyMap(0)
	p.ApplyMap(1)
	p.ApplyMap(99)
	p.Clear()
	one := NewProfLabels(ClassBatch, 0)
	one.ApplyMap(0)
	one.ApplyMap(7)
	one.Clear()
}

// TestProfLabelsZeroAlloc: applying labels at a sub-batch boundary must not
// allocate — the contexts are prebuilt, the switch is an array index plus
// pprof.SetGoroutineLabels.
func TestProfLabelsZeroAlloc(t *testing.T) {
	p := NewProfLabels(ClassBatch, 4)
	defer p.Clear()
	if n := testing.AllocsPerRun(200, func() {
		p.ApplyMap(2)
		p.ApplyEmit()
	}); n != 0 {
		t.Errorf("label application allocates %.1f per switch, want 0", n)
	}
}
