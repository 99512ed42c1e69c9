package hotpath_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotpath"
)

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata/src/a", hotpath.Analyzer)
}

// TestHotPathDirect is the direct pass alone: what a hot body does itself,
// fmt.Sprintf included, is reported exactly once by this analyzer (the
// harness fails on a second diagnostic as on a missing one).
func TestHotPathDirect(t *testing.T) {
	analysistest.Run(t, "testdata/src/direct", hotpath.Analyzer)
}

// TestHotPathCrossPackage loads two real module packages with the full
// loader so xpkg's summaries reach xhot only through facts. The dependent is
// named first: the loader, not the caller, puts imports ahead.
func TestHotPathCrossPackage(t *testing.T) {
	analysistest.RunPkgs(t, ".", hotpath.Analyzer,
		"./testdata/src/xhot", "./testdata/src/xpkg")
}
