package experiments

import (
	"fmt"
	"io"
	"time"

	"nullgraph/internal/converge"
	"nullgraph/internal/core"
	"nullgraph/internal/degseq"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/metrics"
	"nullgraph/internal/mixing"
	"nullgraph/internal/rng"
)

// MixingTimeRow is one dataset's empirical mixing diagnostics.
type MixingTimeRow struct {
	Dataset string
	// RelaxationIters is the burn-in estimate of the triangle-count
	// trajectory from a Havel-Hakimi (maximally structured) start.
	RelaxationIters int
	// Tau is the integrated autocorrelation time of the statistic after
	// burn-in (samples one iteration apart).
	Tau float64
	// SuccessRate is the steady-state fraction of proposals committed.
	SuccessRate float64
	// SwappedAfterOne is the fraction of edges swapped in the first
	// iteration.
	SwappedAfterOne float64
}

// AdaptiveStopRow compares the fixed swap budget against the adaptive
// stopper on one dataset's end-to-end (Figure 5) generation workload.
type AdaptiveStopRow struct {
	Dataset string
	// FixedIters / AdaptiveIters are the completed swap iterations of
	// each policy (adaptive averaged over trials).
	FixedIters    int
	AdaptiveIters float64
	// FixedSwapMs / AdaptiveSwapMs are the swap-phase wall times in
	// milliseconds (best of trials, matching RunFig5's damping).
	FixedSwapMs    float64
	AdaptiveSwapMs float64
	// FixedAssort / AdaptiveAssort are the trial-mean degree
	// assortativity of the delivered graphs — the agreement check that
	// early stopping did not bias the ensemble.
	FixedAssort    float64
	AdaptiveAssort float64
	// Reason is the adaptive stop reason of the last trial
	// ("converged" or "budget").
	Reason string
}

// MixingTimeResult addresses the paper's discussion-section question —
// how many iterations suffice, and how does it relate to the chance of
// an unsuccessful swap — with empirical diagnostics per dataset, plus
// a fixed-vs-adaptive wall-clock comparison on the Figure 5 workload.
type MixingTimeResult struct {
	Iterations int
	Rows       []MixingTimeRow
	// FixedBudget is the fixed policy's iteration count; AdaptiveBudget
	// is the adaptive policy's hard cap.
	FixedBudget    int
	AdaptiveBudget int
	Adaptive       []AdaptiveStopRow
}

// RunMixingTime records one trajectory per (skewed-by-default) dataset.
func RunMixingTime(cfg Config) (*MixingTimeResult, error) {
	iterations := cfg.swapIterations() * 2
	if iterations < 24 {
		iterations = 24
	}
	res := &MixingTimeResult{
		Iterations:     iterations,
		FixedBudget:    cfg.swapIterations(),
		AdaptiveBudget: cfg.swapIterations() * 2,
	}
	for _, spec := range cfg.specs() {
		dist, err := cfg.load(spec)
		if err != nil {
			return nil, err
		}
		el, err := havelhakimi.Generate(dist)
		if err != nil {
			return nil, err
		}
		tr := mixing.Record(el, mixing.Options{
			Iterations: iterations,
			Workers:    cfg.Workers,
			Seed:       rng.Mix64(cfg.Seed) ^ 0x317,
			Statistic:  mixing.Triangles,
		})
		row := MixingTimeRow{Dataset: spec.Name}
		row.RelaxationIters = mixing.RelaxationIterations(tr.Values, 0.05)
		row.Tau = mixing.IntegratedTime(tr.Values[row.RelaxationIters:])
		if len(tr.SwapStats) > 0 {
			first := tr.SwapStats[0]
			row.SwappedAfterOne = first.EverSwapped
			last := tr.SwapStats[len(tr.SwapStats)-1]
			if last.Attempts > 0 {
				row.SuccessRate = float64(last.Successes) / float64(last.Attempts)
			}
		}
		res.Rows = append(res.Rows, row)

		adaptive, err := compareStopPolicies(cfg, spec.Name, dist, res.FixedBudget, res.AdaptiveBudget)
		if err != nil {
			return nil, err
		}
		res.Adaptive = append(res.Adaptive, adaptive)
	}
	return res, nil
}

// compareStopPolicies runs the Figure 5 end-to-end workload (full
// pipeline, all swap iterations) once per trial under each stopping
// policy and reports iterations, swap-phase wall time, and delivered
// assortativity. Seeds are shared pairwise so the fixed run and the
// adaptive run of a trial start from the same generated graph.
func compareStopPolicies(cfg Config, name string, dist *degseq.Distribution, fixedBudget, adaptiveBudget int) (AdaptiveStopRow, error) {
	row := AdaptiveStopRow{Dataset: name, FixedIters: fixedBudget}
	bestFixed, bestAdaptive := time.Hour, time.Hour
	for t := 0; t < cfg.trials(); t++ {
		seed := rng.Mix64(cfg.Seed^0x5ad) + uint64(t)

		// Each run gets a fresh engine, so both phases are timed cold.
		fixedEng := core.NewEngine(core.Options{
			Workers: cfg.Workers, Seed: seed, SwapIterations: fixedBudget,
		})
		fixed, err := fixedEng.GenerateSample(dist, 0, nil)
		fixedEng.Close()
		if err != nil {
			return row, fmt.Errorf("fixed stop on %s: %w", name, err)
		}
		if fixed.Phases.Swapping < bestFixed {
			bestFixed = fixed.Phases.Swapping
		}
		row.FixedAssort += metrics.Assortativity(fixed.Graph, cfg.Workers)

		// Growth 1.1 densifies the checkpoint schedule: the default 1.4
		// spacing cannot gather the six checkpoints the Geweke test
		// needs until iteration ~21, pushing the earliest stop past a
		// 16-scan fixed budget. Checkpoints are O(m) like iterations,
		// so density costs a constant factor, not a complexity class.
		adaptEng := core.NewEngine(core.Options{
			Workers: cfg.Workers, Seed: seed,
			StopPolicy: &converge.Policy{Budget: adaptiveBudget, Growth: 1.1},
		})
		adapt, err := adaptEng.GenerateSample(dist, 0, nil)
		adaptEng.Close()
		if err != nil {
			return row, fmt.Errorf("adaptive stop on %s: %w", name, err)
		}
		if adapt.Phases.Swapping < bestAdaptive {
			bestAdaptive = adapt.Phases.Swapping
		}
		row.AdaptiveIters += float64(adapt.Stop.Iterations)
		row.AdaptiveAssort += metrics.Assortativity(adapt.Graph, cfg.Workers)
		row.Reason = adapt.Stop.Reason
	}
	n := float64(cfg.trials())
	row.AdaptiveIters /= n
	row.FixedAssort /= n
	row.AdaptiveAssort /= n
	row.FixedSwapMs = float64(bestFixed) / float64(time.Millisecond)
	row.AdaptiveSwapMs = float64(bestAdaptive) / float64(time.Millisecond)
	return row, nil
}

// Render prints the diagnostics table.
func (r *MixingTimeResult) Render(w io.Writer) {
	header(w, fmt.Sprintf("Mixing-time diagnostics — triangle trajectory from a Havel-Hakimi start (%d iterations)", r.Iterations))
	fmt.Fprintf(w, "%-12s %12s %8s %14s %16s\n", "dataset", "relaxation", "tau", "success rate", "swapped after 1")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %12d %8.2f %13.1f%% %15.1f%%\n",
			row.Dataset, row.RelaxationIters, row.Tau, row.SuccessRate*100, row.SwappedAfterOne*100)
	}
	fmt.Fprintln(w, "relaxation ≈ the paper's empirical 'steady state after ~10 iterations';")
	fmt.Fprintln(w, "success rate relates mixing speed to graph density/skew, per the paper's discussion.")

	header(w, fmt.Sprintf("Fixed (%d scans) vs adaptive stop (floor %d, budget %d, growth 1.1) — Figure 5 workload",
		r.FixedBudget, converge.DefaultFloor, r.AdaptiveBudget))
	fmt.Fprintf(w, "%-12s %11s %14s %11s %14s %9s %9s %10s\n",
		"dataset", "fixed iter", "fixed swap ms", "adapt iter", "adapt swap ms", "fixed r", "adapt r", "reason")
	for _, row := range r.Adaptive {
		fmt.Fprintf(w, "%-12s %11d %14.1f %11.1f %14.1f %9.4f %9.4f %10s\n",
			row.Dataset, row.FixedIters, row.FixedSwapMs, row.AdaptiveIters, row.AdaptiveSwapMs,
			row.FixedAssort, row.AdaptiveAssort, row.Reason)
	}
	fmt.Fprintln(w, "r = delivered degree assortativity (trial mean); matching r across policies is the")
	fmt.Fprintln(w, "agreement check that early stopping did not bias the delivered ensemble.")
}
