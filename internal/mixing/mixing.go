// Package mixing provides empirical mixing-time diagnostics for the
// double-edge swap chain — the "more in-depth empirical study" the
// paper's discussion section calls for. It tracks scalar graph
// statistics along a swap trajectory, estimates their integrated
// autocorrelation time, and relates the paper's practical stopping
// signals (success rate, fraction of edges swapped) to statistic
// decorrelation.
package mixing

import (
	"fmt"
	"math"

	"nullgraph/internal/graph"
	"nullgraph/internal/metrics"
	"nullgraph/internal/swap"
)

// Statistic is a scalar graph functional tracked along the chain.
type Statistic int

const (
	// Assortativity tracks the degree correlation coefficient; it
	// relaxes from any structured start toward the null ensemble's
	// mean.
	Assortativity Statistic = iota
	// Triangles tracks the triangle count — the motif-analysis
	// statistic null models exist to calibrate.
	Triangles
)

// String names the statistic.
func (s Statistic) String() string {
	switch s {
	case Assortativity:
		return "assortativity"
	case Triangles:
		return "triangles"
	default:
		return fmt.Sprintf("Statistic(%d)", int(s))
	}
}

// evaluate computes the statistic on the current graph.
func (s Statistic) evaluate(el *graph.EdgeList, workers int) float64 {
	switch s {
	case Triangles:
		return float64(graph.BuildCSR(el, workers).CountTriangles(workers))
	default:
		return metrics.Assortativity(el, workers)
	}
}

// Options configures a trajectory run.
type Options struct {
	// Iterations is the chain length to record.
	Iterations int
	// Workers and Seed are passed to the swap engine.
	Workers int
	Seed    uint64
	// Statistic selects what to track.
	Statistic Statistic
}

// Trajectory is the recorded chain: Values[t] is the statistic after t
// iterations (Values[0] is the starting graph), along with the swap
// engine's own per-iteration signals.
type Trajectory struct {
	Statistic Statistic
	Values    []float64
	SwapStats []swap.IterStats
}

// Record runs the swap chain on el in place for opt.Iterations,
// evaluating the statistic after every iteration.
func Record(el *graph.EdgeList, opt Options) *Trajectory {
	tr := &Trajectory{Statistic: opt.Statistic}
	tr.Values = append(tr.Values, opt.Statistic.evaluate(el, opt.Workers))
	eng := swap.NewEngine(el, swap.Options{
		Workers:      opt.Workers,
		Seed:         opt.Seed,
		TrackSwapped: true,
	})
	defer eng.Close()
	for it := 0; it < opt.Iterations; it++ {
		stats := eng.Step()
		tr.SwapStats = append(tr.SwapStats, stats)
		tr.Values = append(tr.Values, opt.Statistic.evaluate(el, opt.Workers))
	}
	return tr
}

// Autocorrelation returns the normalized autocorrelation function of a
// series at lags 0..maxLag (lag 0 is 1 by definition). Series shorter
// than 2 or with zero variance return all-zero (lag 0 still 1).
func Autocorrelation(series []float64, maxLag int) []float64 {
	n := len(series)
	acf := make([]float64, maxLag+1)
	if maxLag >= 0 {
		acf[0] = 1
	}
	if n < 2 {
		return acf
	}
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	var variance float64
	for _, v := range series {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(n)
	if variance == 0 {
		return acf
	}
	for lag := 1; lag <= maxLag && lag < n; lag++ {
		var cov float64
		for t := 0; t+lag < n; t++ {
			cov += (series[t] - mean) * (series[t+lag] - mean)
		}
		cov /= float64(n - lag)
		acf[lag] = cov / variance
	}
	return acf
}

// MinSeriesLen is the shortest series the integrated-autocorrelation
// estimator accepts: below 3 points there is no lag the ACF can be
// estimated at with maxLag = n/3.
const MinSeriesLen = 3

// IntegratedTime estimates the integrated autocorrelation time
// τ = 1 + 2·Σ ρ(k), truncating the sum at the first non-positive ρ
// (Geyer's initial positive sequence, simplified). τ ≈ 1 means
// consecutive samples are already independent. Degenerate inputs are
// lenient: series shorter than MinSeriesLen and constant (zero-
// variance) series both return 1 — convenient for online monitors that
// poll from the first checkpoint. Callers that want the degenerate
// cases surfaced should use IntegratedTimeChecked.
func IntegratedTime(series []float64) float64 {
	if len(series) < MinSeriesLen {
		return 1
	}
	return integratedTime(series)
}

// IntegratedTimeChecked is IntegratedTime with the too-short case
// reported as an error instead of the silent τ = 1: estimating an
// autocorrelation time from fewer than MinSeriesLen points is not a
// small-sample estimate, it is no estimate at all. A constant series
// still returns τ = 1 without error (its ACF is identically zero
// beyond lag 0, so "already independent" is the honest summary).
func IntegratedTimeChecked(series []float64) (float64, error) {
	if len(series) < MinSeriesLen {
		return 0, fmt.Errorf("mixing: series of %d points is too short for an autocorrelation-time estimate (need >= %d)",
			len(series), MinSeriesLen)
	}
	return integratedTime(series), nil
}

func integratedTime(series []float64) float64 {
	maxLag := len(series) / 3
	acf := Autocorrelation(series, maxLag)
	tau := 1.0
	for lag := 1; lag < len(acf); lag++ {
		if acf[lag] <= 0 {
			break
		}
		tau += 2 * acf[lag]
	}
	return tau
}

// RelaxationIterations returns the first iteration at which the series
// stays within tol·|range| of its tail mean (the last third), a simple
// burn-in estimate. Returns len(series)-1 if it never settles.
func RelaxationIterations(series []float64, tol float64) int {
	n := len(series)
	if n < 3 {
		return 0
	}
	tailStart := 2 * n / 3
	var tailMean float64
	for _, v := range series[tailStart:] {
		tailMean += v
	}
	tailMean /= float64(n - tailStart)
	lo, hi := series[0], series[0]
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	band := tol * (hi - lo)
	if band == 0 {
		return 0
	}
	for t := 0; t < n; t++ {
		settled := true
		for u := t; u < n; u++ {
			if math.Abs(series[u]-tailMean) > band {
				settled = false
				break
			}
		}
		if settled {
			return t
		}
	}
	return n - 1
}
