package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run() with stdout/stderr captured through temp files and
// returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := open("stdout"), open("stderr")
	code := run(stdout, stderr, args)
	stdout.Close()
	stderr.Close()
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return code, read("stdout"), read("stderr")
}

func TestListExitsZeroAndNamesEveryAnalyzer(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	want := []string{"hotpath", "metricname"}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %q", i, lines[i], name)
		}
	}
}

func TestUnknownOnlyAnalyzerExitsTwo(t *testing.T) {
	code, _, errOut := runCLI(t, "-only", "nosuch", "./testdata/src/lintme")
	if code != 2 {
		t.Fatalf("-only nosuch exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr does not name the unknown analyzer:\n%s", errOut)
	}
	if !strings.Contains(errOut, "available:") || !strings.Contains(errOut, "hotpath") {
		t.Errorf("stderr does not list the available analyzers:\n%s", errOut)
	}
}

func TestUnknownAmongKnownStillExitsTwo(t *testing.T) {
	code, _, errOut := runCLI(t, "-only", "hotpath,bogus", "./testdata/src/lintme")
	if code != 2 {
		t.Fatalf("-only hotpath,bogus exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, `unknown analyzer "bogus"`) {
		t.Errorf("stderr does not name the unknown analyzer:\n%s", errOut)
	}
}

// TestFindingsExitOne: a hot body that calls fmt.Sprintf itself is exactly
// one hotpath finding.
func TestFindingsExitOne(t *testing.T) {
	code, out, errOut := runCLI(t, "-only", "hotpath", "./testdata/src/lintme")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout:\n%s\nstderr:\n%s)", code, out, errOut)
	}
	if n := strings.Count(out, "\n"); n != 1 || !strings.Contains(out, "lintme.go") ||
		!strings.Contains(out, "hotpath: call to fmt.Sprintf in hot function Hot") {
		t.Errorf("stdout = %d lines, want the one fixture finding:\n%s", n, out)
	}
	if !strings.Contains(errOut, "finding(s)") {
		t.Errorf("stderr does not summarize the finding count:\n%s", errOut)
	}
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, errOut := runCLI(t, "-only", "metricname", "./testdata/src/lintme")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout:\n%s\nstderr:\n%s)", code, out, errOut)
	}
	if out != "" {
		t.Errorf("clean run produced output:\n%s", out)
	}
}

func TestReportDirArchivesFindings(t *testing.T) {
	dir := t.TempDir()
	code, _, _ := runCLI(t, "-only", "hotpath", "-reportdir", dir, "./testdata/src/lintme")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	b, err := os.ReadFile(filepath.Join(dir, "vetgiraffe.txt"))
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !strings.Contains(string(b), "hotpath") {
		t.Errorf("archived report missing the finding:\n%s", b)
	}
}

// TestWorkersFlagIsGone: the driver is serial, so the knob is not accepted.
func TestWorkersFlagIsGone(t *testing.T) {
	code, _, errOut := runCLI(t, "-workers", "2", "./testdata/src/lintme")
	if code != 2 || !strings.Contains(errOut, "flag provided but not defined: -workers") {
		t.Errorf("-workers exit = %d, want 2 and an unknown-flag error:\n%s", code, errOut)
	}
}
