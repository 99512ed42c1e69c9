package serve_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the run when a test leaves a goroutine running: the server
// and the session under it run theirs for as long as a test holds them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
