// Command perfbench is the repository's benchmark: three workloads that
// cover null-graph shuffling, serving and directed generation, each
// with its outputs checked. Run it from the repository
// root through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload shuffle-lj --seed 7 --seconds 30 --trace 0
//
// It prints one JSON line describing the host and the inputs, then, as
// its last line, the result: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones of
// BENCHMARK.json; with --trace 1 they are the per-layer ones. See
// README.md for why each workload exists and which layer each metric
// measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets its workload up at least minSetups times, and more while
// the set-ups together have taken under setupBudget of wall time, up to
// maxSetups; setup_s is the median. A 50 ms serve-mix set-up thus gets
// a median of 20, a 1.7 s directed-gen set-up one of 5 and a 5 s
// shuffle-lj set-up one of 3.
const (
	minSetups   = 3
	maxSetups   = 20
	setupBudget = 8 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 30, "measured seconds of the end-to-end loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "file to write the traced run's spans to (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	res, info, tracers, err := measure(w, *seed, budget, *trace == 1, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *spans != "" && len(tracers) > 0 {
		if err := writeSpans(*spans, tracers); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	// A loop with no successful sample has no CPU time per sample;
	// print such a metric as 0 so the failed run still reports its
	// result.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{0, m.Unit}
			info["notices"] = append(info["notices"].([]string), name+" is undefined: no operation succeeded")
		}
	}
	for _, n := range info["notices"].([]string) {
		fmt.Fprintln(stderr, "perfbench: notice:", n)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure builds the workload's inputs and runs it. Untraced, it sets
// the workload up several times and then drives it for budget of
// measured time, returning the end-to-end metrics. Traced, it drives
// the workload alternately with and without spans to price the
// tracing, then probes every layer, returning the per-layer metrics.
func measure(w workload, seed uint64, budget time.Duration, traced bool, sz size) (*result, map[string]any, []*tracer, error) {
	b, err := w.load(seed, sz)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	defer b.close()
	notices := []string{}
	info := map[string]any{"workload": w.name, "seed": seed, "trace": traced, "host": hostShape(), "inputs": b.info()}
	setup := &loopStats{windows: !traced && !w.rssOverLoop}
	loop := &loopStats{windows: !traced && w.rssOverLoop}
	runs := &loopStats{}
	res := &result{Metrics: map[string]metric{}}
	var tracers []*tracer
	if !traced {
		var setups, setupWalls []float64
		var spent time.Duration
		for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
			wall, cpu := b.start(setup)
			spent += wall
			setups = append(setups, cpu.Seconds())
			setupWalls = append(setupWalls, wall.Seconds())
		}
		steal0, t0 := stealTicks(), time.Now()
		loop.openWindow()
		measured := b.drive(budget, nil, runs).Seconds()
		loop.closeWindow()
		stolen := stealShare(steal0, stealTicks(), time.Since(t0), runtime.NumCPU())
		lat := runs.lat
		p90 := quantile(lat, 0.9)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["cpu_ms_per_sample"] = metric{1000 * runs.cpu.Seconds() / float64(len(lat)), "ms"}
		win, window := setup, "median over set-ups"
		if w.rssOverLoop {
			win, window = loop, "measured loop"
		}
		if win.rssErr != nil || len(win.peaks) == 0 {
			notices = append(notices, "the RSS high-water mark cannot be reset here: peak_rss_mb is the whole process's peak")
			res.Metrics["peak_rss_mb"] = metric{processPeakRSSMB(), "MB"}
		} else {
			res.Metrics["peak_rss_mb"] = metric{median(win.peaks), "MB"}
			info["peak_rss_mb_window"] = window
			info["peak_rss_mb_runs"] = win.peaks
			info["peak_rss_mb_process"] = processPeakRSSMB()
		}
		beyond := 0
		for _, x := range lat {
			if x > p90 {
				beyond++
			}
		}
		// Wall-clock figures: they move with the load other tenants put
		// on the host, steal time most of all (cpu.go).
		info["wall"] = map[string]any{
			"samples_per_s":              float64(len(lat)) / measured,
			"requests_per_s":             float64(runs.attempted) / measured,
			"latency_ms_p50":             1000 * median(lat),
			"latency_ms_p90":             1000 * p90,
			"latency_samples":            len(lat),
			"latency_samples_beyond_p90": beyond,
			"setup_s_runs":               setupWalls,
			"host_steal_share":           stolen,
		}
		info["setup_cpu_s_runs"] = setups
	} else {
		// Half the budget prices the tracing, in alternating quarters so
		// that drift on the host hits both sides alike.
		wt := newTracer(w.name)
		plain, spanned := &loopStats{}, &loopStats{}
		b.start(setup)
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				b.drive(budget/8, nil, plain)
			} else {
				b.drive(budget/8, wt, spanned)
			}
		}
		b.close()
		layers, probeTracers, err := probeLayers(seed, sz, budget/4, runs, &notices)
		if err != nil {
			return nil, nil, nil, err
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		res.Metrics["trace.overhead_frac"] = metric{median(spanned.lat)/median(plain.lat) - 1, "ratio"}
		tracers = append([]*tracer{wt}, probeTracers...)
		runs.merge(plain)
		runs.merge(spanned)
	}
	runs.merge(setup)
	res.Attempted, res.Failed = runs.attempted, runs.failed
	res.Correct = runs.failed == 0
	if runs.firstErr != nil {
		notices = append(notices, fmt.Sprintf("%d of %d operations failed; first: %v", runs.failed, runs.attempted, runs.firstErr))
	}
	info["notices"] = notices
	return res, info, tracers, nil
}

func (st *loopStats) merge(o *loopStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
}

// hostShape records what a number depends on: core count, Go version,
// CPU model and cache sizes.
func hostShape() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		kind, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil || strings.TrimSpace(string(kind)) == "Instruction" {
			continue
		}
		h["l"+strings.TrimSpace(string(level))+"_cache"] = strings.TrimSpace(string(size))
	}
	return h
}
