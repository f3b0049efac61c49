package experiments

import (
	"fmt"
	"io"
	"time"

	"nullgraph/internal/core"
	"nullgraph/internal/rng"
)

// Fig6Row is one dataset's per-phase cost of the paper's method.
type Fig6Row struct {
	Dataset string
	Phases  core.PhaseTimes
	Edges   int64
}

// Fig6Result reproduces Figure 6: average time spent in probability
// computation, edge generation and edge swapping.
type Fig6Result struct {
	Rows    []Fig6Row
	Average core.PhaseTimes
	// EdgeRate is aggregate generated edges per second of edge-
	// generation time across all instances (the paper reports ~1B
	// edges/s on its largest runs).
	EdgeRate float64
}

// RunFig6 runs the full pipeline (one swap iteration, matching Figure
// 5's convention) on every dataset and splits the wall time by phase.
func RunFig6(cfg Config) (*Fig6Result, error) {
	res := &Fig6Result{}
	var totalEdges int64
	var totalEdgeGen time.Duration
	for _, spec := range cfg.specs() {
		dist, err := cfg.load(spec)
		if err != nil {
			return nil, err
		}
		best := Fig6Row{Dataset: spec.Name, Phases: core.PhaseTimes{Probabilities: time.Hour}}
		for t := 0; t < cfg.trials(); t++ {
			// A fresh engine per trial: the probability phase is timed
			// cold, as the paper measures it.
			eng := core.NewEngine(core.Options{
				Workers:        cfg.Workers,
				Seed:           rng.Mix64(cfg.Seed) + uint64(t)*101,
				SwapIterations: 1,
			})
			out, err := eng.GenerateSample(dist, 0, nil)
			eng.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			if best.Phases.Total() == 0 || out.Phases.Total() < best.Phases.Total() {
				best.Phases = out.Phases
				best.Edges = int64(out.Graph.NumEdges())
			}
		}
		res.Rows = append(res.Rows, best)
		res.Average.Probabilities += best.Phases.Probabilities
		res.Average.EdgeGeneration += best.Phases.EdgeGeneration
		res.Average.Swapping += best.Phases.Swapping
		totalEdges += best.Edges
		totalEdgeGen += best.Phases.EdgeGeneration
	}
	if n := len(res.Rows); n > 0 {
		res.Average.Probabilities /= time.Duration(n)
		res.Average.EdgeGeneration /= time.Duration(n)
		res.Average.Swapping /= time.Duration(n)
	}
	if totalEdgeGen > 0 {
		res.EdgeRate = float64(totalEdges) / totalEdgeGen.Seconds()
	}
	return res, nil
}

// Render prints per-phase milliseconds.
func (r *Fig6Result) Render(w io.Writer) {
	header(w, "Figure 6 — per-phase execution time (ms)")
	fmt.Fprintf(w, "%-12s %9s %9s %9s %9s %12s\n", "dataset", "probs", "edgegen", "swap", "total", "edges")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %s %s %s %s %12d\n", row.Dataset,
			ms(row.Phases.Probabilities), ms(row.Phases.EdgeGeneration),
			ms(row.Phases.Swapping), ms(row.Phases.Total()), row.Edges)
	}
	fmt.Fprintf(w, "%-12s %s %s %s %s\n", "average",
		ms(r.Average.Probabilities), ms(r.Average.EdgeGeneration),
		ms(r.Average.Swapping), ms(r.Average.Total()))
	fmt.Fprintf(w, "aggregate edge generation rate: %.1f M edges/s\n", r.EdgeRate/1e6)
}
