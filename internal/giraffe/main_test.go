package giraffe

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the run when a test leaves a goroutine running: BuildIndexes
// runs two of its three builds on goroutines of their own.
func TestMain(m *testing.M) { leakcheck.Main(m) }
