// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VIII) on the synthetic Table I analogs:
//
//	Table 1    — test graph characteristics
//	Figure 1   — Chung-Lu vs empirical attachment probabilities
//	Figure 2   — erased-model degree distribution error
//	Figure 3   — % error in #edges / d_max / Gini per generator
//	Figure 4   — L1 attachment-probability error vs swap iterations
//	Figure 5   — end-to-end generation times per generator
//	Figure 6   — per-phase times of the paper's method
//	SwapScale  — §VIII-C swap throughput and thread scaling
//
// Each experiment is a pure function from a Config to a result struct
// with a Render method that prints the same rows/series the paper
// plots; cmd/experiments and the repository-level benchmarks are thin
// wrappers around these.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"nullgraph/internal/chunglu"
	"nullgraph/internal/core"
	"nullgraph/internal/datasets"
	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/metrics"
	"nullgraph/internal/obs"
	"nullgraph/internal/probgen"
	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// Method names one generator under comparison, with the paper's labels.
type Method string

const (
	// MethodOM is the O(m) Chung-Lu multigraph model.
	MethodOM Method = "O(m)"
	// MethodErased is the erased ("O(m) simple") model.
	MethodErased Method = "O(m) simple"
	// MethodBernoulli is the Bernoulli Chung-Lu ("O(n^2) edgeskip").
	MethodBernoulli Method = "O(n^2) edgeskip"
	// MethodOurs is the paper's method (probabilities + edge-skipping).
	MethodOurs Method = "this work"
)

// AllMethods lists the comparison set in the paper's order.
func AllMethods() []Method {
	return []Method{MethodOM, MethodErased, MethodBernoulli, MethodOurs}
}

// Config sizes and seeds an experiment run.
type Config struct {
	// Workers is the parallel width (<= 0: GOMAXPROCS).
	Workers int
	// Seed drives all sampling.
	Seed uint64
	// MaxVertices caps dataset analog sizes (<= 0: package default).
	MaxVertices int64
	// Trials averages stochastic measurements (<= 0: 3).
	Trials int
	// SwapIterations is the mixing-curve length for Figure 4 (<= 0: 16).
	SwapIterations int
	// SkewedOnly restricts dataset sweeps to the paper's four skewed
	// quality-comparison instances.
	SkewedOnly bool
	// Datasets, when non-empty, restricts sweeps to the named Table I
	// instances (applied after SkewedOnly).
	Datasets []string
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

func (c Config) swapIterations() int {
	if c.SwapIterations <= 0 {
		return 16
	}
	return c.SwapIterations
}

func (c Config) specs() []datasets.Spec {
	var out []datasets.Spec
	for _, s := range datasets.Table1() {
		if c.SkewedOnly && !s.Skewed {
			continue
		}
		if len(c.Datasets) > 0 {
			found := false
			for _, name := range c.Datasets {
				if s.Name == name {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

func (c Config) load(s datasets.Spec) (*degseq.Distribution, error) {
	return datasets.Load(s, datasets.LoadOptions{MaxVertices: c.MaxVertices, Seed: c.Seed})
}

// generate runs one method without any mixing and returns its raw output
// (the O(m) model's output is a multigraph).
func generate(m Method, dist *degseq.Distribution, workers int, seed uint64) (*graph.EdgeList, error) {
	opt := chunglu.Options{Workers: workers, Seed: seed}
	switch m {
	case MethodOM:
		return chunglu.GenerateOM(dist, opt), nil
	case MethodErased:
		el, _ := chunglu.GenerateErased(dist, opt)
		return el, nil
	case MethodBernoulli:
		return chunglu.GenerateBernoulli(dist, opt)
	case MethodOurs:
		eng := core.NewEngine(core.Options{Workers: workers, Seed: seed})
		defer eng.Close()
		res, err := eng.GenerateSample(dist, 0, nil)
		if err != nil {
			return nil, err
		}
		return res.Graph, nil
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", m)
	}
}

// uniformReference draws one uniformly random simple graph for dist via
// Havel-Hakimi construction plus heavy double-edge swapping — the
// baseline sample of Figures 1 and 4 (the paper uses 128 iterations).
func uniformReference(dist *degseq.Distribution, workers int, seed uint64, iterations int) (*graph.EdgeList, error) {
	el, err := havelhakimi.Generate(dist)
	if err != nil {
		return nil, err
	}
	swap.Run(el, swap.Options{Iterations: iterations, Workers: workers, Seed: seed})
	return el, nil
}

// baseAttachment averages the attachment matrix of `samples` uniform
// reference graphs.
func baseAttachment(dist *degseq.Distribution, workers int, seed uint64, samples, iterations int) (*probgen.Matrix, error) {
	acc := metrics.NewAttachmentAccumulator(dist)
	for t := 0; t < samples; t++ {
		el, err := uniformReference(dist, workers, rng.Mix64(seed)+uint64(t)*7919, iterations)
		if err != nil {
			return nil, err
		}
		acc.Add(el)
	}
	return acc.Matrix(), nil
}

// CollectRunReport runs the paper's full pipeline once on the first
// configured Table I analog with chain-health instrumentation attached
// and returns the resulting report — the observability companion to an
// experiment sweep, so a figure's numbers can be cross-checked against
// the acceptance, probe, and skip-draw statistics of an identically
// configured run.
func CollectRunReport(cfg Config) (*obs.RunReport, error) {
	specs := cfg.specs()
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: no datasets selected")
	}
	dist, err := cfg.load(specs[0])
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	eng := core.NewEngine(core.Options{
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
		SwapIterations: cfg.swapIterations(),
		TrackSwapStats: true,
		Recorder:       rec,
	})
	defer eng.Close()
	if _, err := eng.GenerateSample(dist, 0, nil); err != nil {
		return nil, err
	}
	return rec.Report(), nil
}

// column formats a duration in milliseconds with fixed width.
func ms(d time.Duration) string { return fmt.Sprintf("%9.1f", float64(d.Microseconds())/1000) }

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
