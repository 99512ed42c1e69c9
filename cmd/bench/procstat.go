package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is this process's CPU time so far, user plus system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is another process's CPU time so far, summed over its threads from
// /proc/<pid>/task/*/schedstat, whose first field is the thread's time on a
// CPU in nanoseconds (the utime/stime of /proc/<pid>/stat only tick every
// 10 ms, too coarse for a third-of-a-second window).
func procCPU(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no thread schedstat (%v)", pid, err)
	}
	var total time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			return 0, fmt.Errorf("%s: empty", p)
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMiB is the resident-set high-water mark (VmHWM) of a process, in
// MiB; pid 0 means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// usage is a point-in-time reading of the costs a pass is charged: wall
// clock, process CPU, and the allocator's cumulative counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: selfCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}
