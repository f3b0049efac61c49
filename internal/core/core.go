// Package core wires the paper's Algorithm IV.1 end to end: probability
// generation (Section IV-A) → parallel edge-skipping (Section IV-B) →
// parallel double-edge swaps (Section III-A). Its Engine session also
// runs the edge-list entry point (Problem 1: mix an existing graph) and
// records per-phase wall times, which the Figure 6 experiment reports.
package core

import (
	"errors"
	"fmt"
	"time"

	"nullgraph/internal/connected"
	"nullgraph/internal/converge"
	"nullgraph/internal/graph"
	"nullgraph/internal/obs"
	"nullgraph/internal/probgen"
	"nullgraph/internal/simplify"
	"nullgraph/internal/swap"
)

// ErrEngineBusy reports a concurrent call on a single Engine session.
// An Engine owns one set of phase scratch buffers, so overlapping
// GenerateSample/ShuffleSample calls would race on them; the guard
// turns that misuse into this error instead. Callers that need
// concurrency hold one Engine per goroutine (or a serve.Pool).
var ErrEngineBusy = errors.New("core: engine busy: an Engine session supports one call at a time")

// Options configures the full pipeline.
type Options struct {
	// Space selects the sampling-space cell (graph.Space) the pipeline
	// targets. The zero value is graph.SimpleStub, the paper's regime,
	// and keeps every path bit-identical to the pre-matrix pipeline.
	// Non-simple cells change the swap chain's acceptance policy (see
	// internal/swap) and make ShuffleSample validate its input against
	// the cell; the simple cells instead accept non-simple input and
	// run the targeted simplification pass (internal/simplify) before
	// swapping, replacing the historical "swaps eventually simplify"
	// behavior with a bounded deterministic one.
	Space graph.Space
	// Connected restricts sampling to *connected* simple graphs
	// (Viger–Latapy, arXiv:cs/0502085). Requires a simple-cell Space.
	// GenerateSample seeds from a deterministic connected realization
	// (connected.Realize — exact degrees, probabilistic model skipped);
	// ShuffleSample repairs its input with connected.Connect (after
	// simplification, if any ran), mutating it in place. Both fail when
	// the degree sequence admits no connected
	// realization. The swap phase then runs the serial connectivity-
	// preserving chain (swap.Options.Connected) and the Result carries
	// its check-outcome counters.
	Connected bool
	// Workers is the parallel width for every phase; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Seed fixes all randomness for a given worker count.
	Seed uint64
	// SwapIterations is the number of double-edge swap iterations to
	// mix the generated edge list. The paper observes ~10 iterations
	// reach steady-state attachment probabilities on simple inputs.
	// Zero disables mixing (the output is then biased).
	SwapIterations int
	// MixUntilSwapped, when true, ignores SwapIterations and runs until
	// every edge has been in a successful swap (for at most swap.MixCap
	// iterations), the paper's empirical mixing signal.
	MixUntilSwapped bool
	// StopPolicy, when non-nil, replaces the fixed swap budget with the
	// adaptive convergence monitor of internal/converge: the chain runs
	// until the monitored statistic's checkpoint trace passes a
	// Geweke-style stationarity test (with hysteresis), bounded below by
	// StopPolicy.Floor and above by StopPolicy.Budget. It takes
	// precedence over MixUntilSwapped and SwapIterations. Ever-swapped
	// tracking is forced on (the monitor records it, and
	// StopPolicy.MinEverSwapped may gate on it). A nil StopPolicy keeps
	// the fixed-scan path bit-identical to previous releases.
	StopPolicy *converge.Policy
	// TrackSwapStats retains per-iteration swap statistics in the
	// result (forced on by MixUntilSwapped).
	TrackSwapStats bool
	// RefinePasses, when > 0, post-processes the heuristic probability
	// matrix with that many iterative-proportional-fitting passes
	// (probgen.Refine), trading O(passes·|D|²) extra work for tighter
	// expected-degree residuals on extreme distributions.
	RefinePasses int
	// Recorder, when non-nil, collects chain-health observability
	// across the pipeline — edge-skip space accounting, per-iteration
	// swap acceptance splits and probe histograms, and the phase wall
	// times — into an obs.RunReport. nil (the default) leaves every hot
	// path untouched.
	Recorder *obs.Recorder
}

// PhaseTimes records the wall time of each pipeline phase (Figure 6).
type PhaseTimes struct {
	Probabilities  time.Duration
	EdgeGeneration time.Duration
	Swapping       time.Duration
}

// Total returns the end-to-end time.
func (p PhaseTimes) Total() time.Duration {
	return p.Probabilities + p.EdgeGeneration + p.Swapping
}

// Result is the pipeline output.
type Result struct {
	// Graph is the generated (or mixed) simple edge list.
	Graph *graph.EdgeList
	// Probabilities is the class matrix used for edge-skipping (nil for
	// the edge-list entry point).
	Probabilities *probgen.Matrix
	// Phases records per-phase wall time.
	Phases PhaseTimes
	// Swaps summarizes the mixing phase.
	Swaps swap.Result
	// Simplify reports the targeted simplification pass, present only
	// when ShuffleSample ran one (simple space, non-simple input).
	Simplify *simplify.Result
	// Connectivity reports the connected chain's check outcomes,
	// present only for Options.Connected runs.
	Connectivity *connected.Stats
	// Mixed reports whether every edge swapped at least once (only
	// meaningful with MixUntilSwapped).
	Mixed bool
	// Stop records why the swap phase ended: policy "fixed" with reason
	// "scans"/"mixed"/"budget" on the default path, or the adaptive
	// monitor's outcome (reason "converged" or "budget" plus the
	// checkpoint trail) when Options.StopPolicy is set. The same record
	// lands in the RunReport's stop section when a Recorder is attached.
	Stop *obs.StopReport
}

// recordPhases folds the phase wall times into the run report.
func recordPhases(opt Options, p PhaseTimes) {
	if obs.Enabled && opt.Recorder != nil {
		opt.Recorder.SetPhases(int64(p.Probabilities), int64(p.EdgeGeneration), int64(p.Swapping))
	}
}

// recordStop folds the stopping decision into the run report.
func recordStop(opt Options, st *obs.StopReport) {
	if obs.Enabled && opt.Recorder != nil && st != nil {
		opt.Recorder.SetStop(st)
	}
}

// recordSpace stamps the sampling space into the run report.
func recordSpace(opt Options) {
	if obs.Enabled && opt.Recorder != nil {
		opt.Recorder.SetSpace(opt.Space.String())
	}
}

// recordSimplify folds the simplification pass (nil when none ran —
// clearing any section a previous sample on the same recorder left)
// into the run report.
func recordSimplify(opt Options, s *simplify.Result) {
	if obs.Enabled && opt.Recorder != nil {
		if s == nil {
			opt.Recorder.SetSimplify(nil)
			return
		}
		opt.Recorder.SetSimplify(&obs.SimplifyReport{
			InitialDefects:  s.InitialDefects,
			ResidualDefects: s.ResidualDefects,
			Swaps:           s.Swaps,
			Neutral:         s.Neutral,
			Simple:          s.Simple,
		})
	}
}

// recordConnectivity folds the connected chain's check outcomes (nil
// when the run was unconstrained — clearing any section a previous
// sample on the same recorder left) into the run report.
func recordConnectivity(opt Options, s *connected.Stats) {
	if obs.Enabled && opt.Recorder != nil {
		if s == nil {
			opt.Recorder.SetConnectivity(nil)
			return
		}
		opt.Recorder.SetConnectivity(&obs.ConnectivityReport{
			Proposals:             s.Proposals,
			FastPathHits:          s.FastPathHits,
			BoundedChecks:         s.BoundedChecks,
			BoundedConclusive:     s.BoundedConclusive,
			FullChecks:            s.FullChecks,
			WitnessRebuilds:       s.WitnessRebuilds,
			RejectedDisconnecting: s.RejectedDisconnecting,
			FullRechecks:          s.FullRechecks,
		})
	}
}

// validateConnected gates the Connected option: the connected subspace
// is defined for the simple cell only.
func validateConnected(opt Options) error {
	if opt.Connected && (opt.Space.AllowsLoops() || opt.Space.AllowsMulti()) {
		return fmt.Errorf("core: Connected sampling is defined for the simple cell only, not %v", opt.Space)
	}
	return nil
}

// validateEdgeList is the shared input gate for the edge-list entry
// points: the list must be non-nil and every endpoint must name a
// vertex in [0, NumVertices). Empty and single-edge lists are valid
// (the swap phase is then a no-op). The scan itself is O(m) and
// allocation-free; the fmt calls sit on cold error exits.
//
//nullgraph:hotpath
func validateEdgeList(el *graph.EdgeList) error {
	if el == nil {
		return fmt.Errorf("core: nil edge list") //nullgraph:allow hotpathalloc cold error exit
	}
	n := int32(el.NumVertices)
	for i, e := range el.Edges {
		if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return fmt.Errorf("core: edge %d (%d,%d) out of range for %d vertices", i, e.U, e.V, el.NumVertices) //nullgraph:allow hotpathalloc cold error exit
		}
	}
	return nil
}

// swapOptions derives the session's swap configuration.
func (o Options) swapOptions() swap.Options {
	return swap.Options{
		Space:        o.Space,
		Connected:    o.Connected,
		Iterations:   o.SwapIterations,
		Workers:      o.Workers,
		Seed:         o.Seed + 0x5eed,
		TrackSwapped: o.TrackSwapStats || o.MixUntilSwapped || o.StopPolicy != nil,
		Recorder:     o.Recorder,
	}
}
