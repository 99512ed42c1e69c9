package obs

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the run when a test leaves a goroutine running: the sampler,
// the continuous profiler and the debug server start theirs here.
func TestMain(m *testing.M) { leakcheck.Main(m) }
