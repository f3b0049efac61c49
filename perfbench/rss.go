package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// Peak RSS is read from the kernel's resident-set high-water mark,
// reset at the start of a window and read back at its end. Which window
// depends on the workload:
//
//   - shuffle-lj and directed-gen take one window per set-up, from a
//     collected heap to the first sample, and report the median. Over a
//     whole run, whether a large sample's garbage is collected before
//     the next sample peaks is a matter of GC timing, and on
//     directed-gen the process-wide peak swings by a third from run to
//     run; the median set-up peak does not.
//   - serve-mix takes one window over its measured loop, which fills the
//     engine pool for all eight fingerprints; its small engines show no
//     such swing.

// openRSSWindow resets the resident-set high-water mark of the process.
func openRSSWindow() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssHighWaterMB reads the high-water mark since the last reset.
func rssHighWaterMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}

// processPeakRSSMB is the high-water mark of the whole process, the
// fallback where the mark cannot be reset.
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
