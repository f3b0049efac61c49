package experiments

import (
	"fmt"
	"io"
	"time"

	"nullgraph/internal/connected"
	"nullgraph/internal/graph"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/metrics"
	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// ConnectedRow compares the connectivity-preserving chain against the
// unconstrained chain on one dataset's Figure 5 swap workload, both
// started from the same repaired Havel-Hakimi realization.
type ConnectedRow struct {
	Dataset string
	// UnconstrainedAssort / ConnectedAssort are the trial-mean degree
	// assortativity of the delivered graphs. Their gap is the quantity
	// of interest: conditioning the null model on connectivity shifts
	// the ensemble, and this row measures by how much.
	UnconstrainedAssort float64
	ConnectedAssort     float64
	// UnconstrainedSwapMs / ConnectedSwapMs are the swap wall times in
	// milliseconds (best of trials). The connected chain is serial and
	// runs a connectivity check per proposal, so its overhead factor is
	// the cost of the constraint.
	UnconstrainedSwapMs float64
	ConnectedSwapMs     float64
	// RejectedFrac is the fraction of connectivity-checked proposals
	// rejected for disconnecting the graph; FastPathFrac is the
	// fraction settled by the O(1) witness-tree fast path (see
	// DESIGN.md §16 for the check hierarchy).
	RejectedFrac float64
	FastPathFrac float64
}

// ConnectedResult holds the connected-vs-unconstrained comparison.
type ConnectedResult struct {
	Iterations int
	Trials     int
	Rows       []ConnectedRow
}

// RunConnected measures what conditioning on connectivity does to the
// delivered ensemble and what it costs: per dataset, the same repaired
// Havel-Hakimi start is mixed for the Figure 5 swap budget by the
// unconstrained chain and by the connectivity-preserving chain, and
// the row reports assortativity, wall time, and the connected chain's
// rejection/fast-path profile. Datasets whose degree sequence admits
// no connected realization are skipped.
func RunConnected(cfg Config) (*ConnectedResult, error) {
	res := &ConnectedResult{Iterations: cfg.swapIterations(), Trials: cfg.trials()}
	for _, spec := range cfg.specs() {
		dist, err := cfg.load(spec)
		if err != nil {
			return nil, err
		}
		if err := connected.Realizable(dist); err != nil {
			continue
		}
		start, err := havelhakimi.Generate(dist)
		if err != nil {
			return nil, err
		}
		if _, err := connected.Connect(start); err != nil {
			return nil, fmt.Errorf("connected repair on %s: %w", spec.Name, err)
		}
		row := ConnectedRow{Dataset: spec.Name}
		bestU, bestC := time.Hour, time.Hour
		var proposals, rejected, fastPath int64
		for t := 0; t < cfg.trials(); t++ {
			seed := rng.Mix64(cfg.Seed^0xc0a) + uint64(t)

			elU := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
			t0 := time.Now()
			swap.Run(elU, swap.Options{Iterations: res.Iterations, Workers: cfg.Workers, Seed: seed})
			if d := time.Since(t0); d < bestU {
				bestU = d
			}
			row.UnconstrainedAssort += metrics.Assortativity(elU, cfg.Workers)

			elC := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
			eng := swap.NewEngine(elC, swap.Options{
				Connected: true, Iterations: res.Iterations, Workers: cfg.Workers, Seed: seed,
			})
			t0 = time.Now()
			swap.Drive(eng, swap.Budget(res.Iterations))
			if d := time.Since(t0); d < bestC {
				bestC = d
			}
			row.ConnectedAssort += metrics.Assortativity(elC, cfg.Workers)
			if st := eng.ConnectivityStats(); st != nil {
				proposals += st.Proposals
				rejected += st.RejectedDisconnecting
				fastPath += st.FastPathHits
			}
			eng.Close()
		}
		n := float64(cfg.trials())
		row.UnconstrainedAssort /= n
		row.ConnectedAssort /= n
		row.UnconstrainedSwapMs = float64(bestU) / float64(time.Millisecond)
		row.ConnectedSwapMs = float64(bestC) / float64(time.Millisecond)
		if proposals > 0 {
			row.RejectedFrac = float64(rejected) / float64(proposals)
			row.FastPathFrac = float64(fastPath) / float64(proposals)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the comparison table.
func (r *ConnectedResult) Render(w io.Writer) {
	header(w, fmt.Sprintf("Connected vs unconstrained sampling — Figure 5 swap workload (%d iterations, %d trials)",
		r.Iterations, r.Trials))
	fmt.Fprintf(w, "%-12s %10s %10s %12s %12s %10s %10s\n",
		"dataset", "free r", "conn r", "free ms", "conn ms", "rejected", "fast path")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %10.4f %10.4f %12.1f %12.1f %9.2f%% %9.1f%%\n",
			row.Dataset, row.UnconstrainedAssort, row.ConnectedAssort,
			row.UnconstrainedSwapMs, row.ConnectedSwapMs,
			row.RejectedFrac*100, row.FastPathFrac*100)
	}
	fmt.Fprintln(w, "r = delivered degree assortativity (trial mean); the free-vs-conn gap is the bias")
	fmt.Fprintln(w, "conditioning the null model on connectivity introduces. rejected/fast path are")
	fmt.Fprintln(w, "fractions of connectivity-checked proposals (DESIGN.md §16 check hierarchy).")
}
