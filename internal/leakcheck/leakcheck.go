// Package leakcheck is the goroutine-leak gate of the packages that start
// long-lived goroutines — the obs sampler and debug server, the concurrent
// index builds of package giraffe, the serving stack. Their TestMain hands
// the test run to Main, which fails the test binary when goroutines the
// tests started are still running after the last test.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// grace is how long goroutines that are on their way out (a closed
// listener's accept loop, a client connection seeing EOF) get to finish.
const grace = 5 * time.Second

// Main runs the tests and exits with their code. When they passed, it waits
// up to grace for the goroutine count to come back to what it was before
// them; if it does not, it prints every goroutine's stack and exits 1. A
// fuzzing run is not checked: the fuzzing engine leaves os/signal's
// receiver goroutine running for the life of the process.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(grace)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running %v after the tests, %d before them\n\n%s\n",
				after, grace, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
