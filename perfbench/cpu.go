package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The end-to-end timings are CPU time, not wall time. On a host whose
// cores are shared with other tenants, the hypervisor takes a core away
// from a busy process for a share of the time that varies from minute
// to minute (steal time). A sample's wall time grows with that share,
// and a two-worker sample that waits on its slower worker grows faster
// still; its CPU time leaves stolen time out. Wall-clock rates and
// latencies are still printed, on the info line, with the steal share
// of the loop beside them.

// processCPU returns the user plus system CPU time the process has
// used, all threads included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks returns the host's steal time summed over all CPUs, in
// clock ticks, from /proc/stat; -1 where it cannot be read.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// stealShare is the share of all CPUs' time the host stole between two
// stealTicks readings taken elapsed apart (Linux counts 100 ticks a
// second); -1 where steal time is not reported.
func stealShare(from, to int64, elapsed time.Duration, cpus int) float64 {
	if from < 0 || to < 0 || elapsed <= 0 {
		return -1
	}
	return float64(to-from) / (100 * elapsed.Seconds() * float64(cpus))
}
