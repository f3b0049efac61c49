package directed

import (
	"fmt"

	"nullgraph/internal/converge"
	"nullgraph/internal/graph"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// Options configures the directed end-to-end pipeline.
type Options struct {
	Workers        int
	Seed           uint64
	SwapIterations int
	// MixUntilSwapped, when true, ignores SwapIterations and swaps until
	// every arc has been in a successful swap, for at most swap.MixCap
	// iterations.
	MixUntilSwapped bool
	// StopPolicy, when non-nil, replaces the fixed swap budget with the
	// adaptive convergence monitor. The directed chain has no wired
	// graph-statistic evaluator, so the monitored trace is always the
	// swap success rate regardless of StopPolicy.Statistic; Floor,
	// Budget, and the stationarity knobs apply as in the undirected
	// pipeline. Takes precedence over MixUntilSwapped and
	// SwapIterations; the outcome lands in Result.Stop.
	StopPolicy *converge.Policy
	// Stop, when non-nil, cancels cooperatively: between pipeline phases
	// and once per block of every swap phase. A tripped flag makes
	// Generate and Shuffle return par.ErrStopped; Shuffle's arc list
	// stays valid (joint degrees preserved) but under-mixed.
	Stop *par.Stop
}

// Result is the directed pipeline output.
type Result struct {
	Graph *ArcList
	Swaps swap.Result
	Mixed bool
	// Stop records how the swap phase ended — fixed-budget reason or
	// the adaptive monitor's outcome with its checkpoint trail.
	Stop *obs.StopReport
}

// Generate draws a uniformly random simple digraph matching the joint
// (out, in) degree distribution in expectation: probabilities →
// directed edge-skipping → directed double-arc swaps.
func Generate(d *JointDistribution, opt Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.OutStubs() != d.InStubs() {
		return nil, fmt.Errorf("directed: out stubs %d != in stubs %d (not a digraph sequence)",
			d.OutStubs(), d.InStubs())
	}
	if opt.Stop.Stopped() {
		return nil, par.ErrStopped
	}
	prob := GenerateProbabilities(d, opt.Workers)
	if opt.Stop.Stopped() {
		return nil, par.ErrStopped
	}
	al, err := GenerateArcs(d, prob, SkipOptions{Workers: opt.Workers, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	if opt.Stop.Stopped() {
		return nil, par.ErrStopped
	}
	res := &Result{Graph: al}
	if stopped := res.runSwaps(al, opt); stopped {
		return nil, par.ErrStopped
	}
	return res, nil
}

// runSwaps drives the mixing phase shared by Generate and Shuffle on
// the swap package's directed engine, reporting whether the stop flag
// interrupted it. The arcs cross into the engine's out/in cover once
// and come back once, also after a stop.
func (res *Result) runSwaps(al *ArcList, opt Options) bool {
	cover := &graph.EdgeList{Edges: make([]graph.Edge, len(al.Arcs)), NumVertices: al.NumVertices}
	for i, a := range al.Arcs {
		cover.Edges[i] = swap.ArcEdge(a.From, a.To)
	}
	sopt := swap.Options{Workers: opt.Workers, Seed: rng.Mix64(opt.Seed) + 0xd15eed, Stop: opt.Stop}
	var st swap.Stopper = swap.Budget(opt.SwapIterations)
	var mon *converge.Monitor
	switch {
	case opt.StopPolicy != nil:
		// nil eval forces the monitor onto the success-rate trace; the
		// monitor also wants the ever-swapped signal, so tracking is on.
		mon = converge.NewMonitor(*opt.StopPolicy, nil)
		sopt.TrackSwapped = true
		st = mon.Stopper()
	case opt.MixUntilSwapped:
		sopt.TrackSwapped = true
		st = swap.MixCap
	}
	eng := swap.NewDirectedEngine(cover, sopt)
	var early bool
	res.Swaps, early = swap.Drive(eng, st)
	eng.Close()
	for i, e := range cover.Edges {
		al.Arcs[i].From, al.Arcs[i].To = swap.EdgeArc(e)
	}
	if mon != nil {
		out := mon.Outcome()
		res.Stop = &out
	} else {
		res.Mixed = early
		res.Stop = swap.FixedStopReport(opt.MixUntilSwapped, res.Mixed, res.Swaps)
	}
	return res.Swaps.Stopped
}

// validateArcList is the input gate for the arc-list entry point,
// mirroring the undirected pipeline's validateEdgeList: the list must
// be non-nil and every endpoint must name a vertex in
// [0, NumVertices). Empty and single-arc lists are valid (the swap
// phase is then a no-op).
func validateArcList(al *ArcList) error {
	if al == nil {
		return fmt.Errorf("directed: nil arc list")
	}
	n := int32(al.NumVertices)
	for i, a := range al.Arcs {
		if a.From < 0 || a.To < 0 || a.From >= n || a.To >= n {
			return fmt.Errorf("directed: arc %d (%d->%d) out of range for %d vertices", i, a.From, a.To, al.NumVertices)
		}
	}
	return nil
}

// Shuffle mixes an existing digraph in place with double-arc swaps,
// validating the input like the undirected edge-list entry point. When
// opt.Stop trips mid-run it returns par.ErrStopped and al is left
// valid (in- and out-degrees preserved) but under-mixed.
func Shuffle(al *ArcList, opt Options) (*Result, error) {
	if err := validateArcList(al); err != nil {
		return nil, err
	}
	res := &Result{Graph: al}
	if stopped := res.runSwaps(al, opt); stopped {
		return nil, par.ErrStopped
	}
	return res, nil
}
