package statcheck

import (
	"fmt"
	"sort"

	"nullgraph/internal/connected"
	"nullgraph/internal/converge"
	"nullgraph/internal/core"
	"nullgraph/internal/degseq"
	"nullgraph/internal/directed"
	"nullgraph/internal/edgeskip"
	"nullgraph/internal/graph"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/metrics"
	"nullgraph/internal/probgen"
	"nullgraph/internal/swap"
)

// swapChainIterations is the per-sample swap budget for undirected
// uniformity checks. The enumerable spaces have at most 6 vertices, so
// the chain's diameter is tiny; 30 iterations (the experiments
// package's long-used budget) is far past mixing on every space below.
//
// directedChainIterations is higher because the directed pair sweep is
// lazy (each legal exchange is proposed with probability 1/2 — see the
// internal/swap policy.go doc for why that coin is load-bearing): empirically, 30
// iterations leaves measurable under-mixing on the n=4 derangement
// space (mean p ≈ 0.37 over 30 seeds), while 60+ restores the uniform
// p-value profile; 100 leaves margin for long nightly budgets.
const (
	swapChainIterations     = 30
	directedChainIterations = 100
	// spaceChainIterations is the budget of the loopy/multigraph cell
	// gates. The vertex-labeled chains are serial Metropolis-Hastings
	// sweeps with m/2 proposals per iteration, so on the 3-edge fixtures
	// one iteration is a single proposal; 60 iterations keeps even those
	// chains far past mixing on the ≤ 6-state spaces below while staying
	// cheap enough for the tier-2 budget.
	spaceChainIterations = 60
	// connectedChainIterations is the connected-chain gate budget. The
	// connectivity-preserving chain is a serial rejection sweep (m/2
	// proposals per iteration) whose acceptance rate is lower than the
	// unconstrained chain's — disconnecting proposals are rejected on
	// top of the simple-cell filters — so it gets the same 60-iteration
	// budget as the other serial sweeps, far past mixing on the 60-state
	// spaces below.
	connectedChainIterations = 60
)

// Check is one named statistical verification, runnable from tests,
// cmd/statcheck, or the nightly CI job.
type Check struct {
	// Name is the stable identifier (-space flag, report entries).
	Name string
	// Description says what distributional property the check locks.
	Description string
	// DefaultSamples is the per-attempt draw budget when Config.Samples
	// is unset. See DESIGN.md §11 for how budgets are sized.
	DefaultSamples int
	// Run executes the check under cfg.
	Run func(cfg Config) (*CheckResult, error)
}

// Checks returns the registry of built-in checks, in report order.
// Every sampler family the repo ships is represented: the undirected
// swap chain (three enumerable degree sequences), the public
// shuffle-session pipeline, the directed swap chain (including the
// triangle-reversal ergodicity case), edge-skipping Bernoulli
// marginals, and probgen expected-degree fidelity.
func Checks() []Check {
	return []Check{
		{
			Name:           "swap-matchings-k6",
			Description:    "swap-chain uniformity over the 15 perfect matchings of K6 (1-regular, n=6)",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSwapUniformity(cfg, "swap-matchings-k6", map[int64]int64{1: 6}, 3000)
			},
		},
		{
			Name:           "swap-cycles-c5",
			Description:    "swap-chain uniformity over the 12 labeled 5-cycles (2-regular, n=5)",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSwapUniformity(cfg, "swap-cycles-c5", map[int64]int64{2: 5}, 3000)
			},
		},
		{
			Name:           "swap-paths-p5",
			Description:    "swap-chain uniformity over the 7 simple graphs with degrees {1,1,2,2,2}",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSwapUniformity(cfg, "swap-paths-p5", map[int64]int64{1: 2, 2: 3}, 3000)
			},
		},
		{
			Name:           "space-loopy-stub",
			Description:    "loopy stub-labeled chain against the stub-matching-weighted target over the 5 loopy graphs with degrees {2,2,1,1}",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSpaceChainUniformity(cfg, "space-loopy-stub", map[int64]int64{2: 2, 1: 2}, graph.LoopyStub, 3000)
			},
		},
		{
			Name:           "space-loopy-vertex",
			Description:    "loopy vertex-labeled MH chain uniformity over the 5 loopy graphs with degrees {2,2,1,1}",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSpaceChainUniformity(cfg, "space-loopy-vertex", map[int64]int64{2: 2, 1: 2}, graph.LoopyVertex, 3000)
			},
		},
		{
			Name:           "space-multigraph-stub",
			Description:    "configuration-model chain against the stub-matching-weighted target over the 5 multigraphs with degrees {2,2,2}",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSpaceChainUniformity(cfg, "space-multigraph-stub", map[int64]int64{2: 3}, graph.MultigraphStub, 3000)
			},
		},
		{
			Name:           "space-multigraph-vertex",
			Description:    "multigraph vertex-labeled MH chain uniformity over the 5 multigraphs with degrees {2,2,2}",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runSpaceChainUniformity(cfg, "space-multigraph-vertex", map[int64]int64{2: 3}, graph.MultigraphVertex, 3000)
			},
		},
		{
			Name:           "connected-uniformity-p5",
			Description:    "connected-chain uniformity over the 6 connected graphs with degrees {1,1,2,2,2}",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runConnectedSwapUniformity(cfg, "connected-uniformity-p5", map[int64]int64{1: 2, 2: 3}, 3000)
			},
		},
		{
			Name:           "connected-uniformity-c6",
			Description:    "connected-chain uniformity over the 60 connected graphs with degrees {2,2,2,2,2,2} (10 of 70 states are two disjoint triangles)",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runConnectedSwapUniformity(cfg, "connected-uniformity-c6", map[int64]int64{2: 6}, 3000)
			},
		},
		{
			Name:           "shuffle-sessions-k6",
			Description:    "uniformity of core.Engine.ShuffleSample batches (session reuse + per-sample seed schedule) over K6 matchings",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runShuffleSessionUniformity(cfg, "shuffle-sessions-k6", map[int64]int64{1: 6}, 3000)
			},
		},
		{
			Name:           "shuffle-adaptive-p5",
			Description:    "uniformity of adaptive-stop ShuffleSample runs (converge monitor, floor = fixed-scan budget) over the {1,1,2,2,2} space",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runAdaptiveShuffleUniformity(cfg, "shuffle-adaptive-p5", map[int64]int64{1: 2, 2: 3}, 3000)
			},
		},
		{
			Name:           "directed-triangles-n3",
			Description:    "directed-swap uniformity over the 2 orientations of a directed triangle (ergodicity needs triangle reversal)",
			DefaultSamples: 2000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runDirectedSwapUniformity(cfg, "directed-triangles-n3", 3, 2000)
			},
		},
		{
			Name:           "directed-derangements-n4",
			Description:    "directed-swap uniformity over the 9 derangement digraphs on 4 vertices (out=in=1)",
			DefaultSamples: 3000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runDirectedSwapUniformity(cfg, "directed-derangements-n4", 4, 3000)
			},
		},
		{
			Name:           "edgeskip-marginals",
			Description:    "edge-skipping per-pair Bernoulli marginals against the analytic P[i][j] (10 pairs, n=5)",
			DefaultSamples: 4000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runEdgeskipMarginals(cfg, "edgeskip-marginals", nil, 4000)
			},
		},
		{
			Name:           "probgen-degrees",
			Description:    "probgen expected-degree fidelity: sampled per-class degree totals match the analytic Bernoulli moments",
			DefaultSamples: 2000,
			Run: func(cfg Config) (*CheckResult, error) {
				return runProbgenDegreeFidelity(cfg, "probgen-degrees", 2000)
			},
		},
	}
}

// CheckByName looks a check up in the registry.
func CheckByName(name string) (Check, bool) {
	for _, c := range Checks() {
		if c.Name == name {
			return c, true
		}
	}
	return Check{}, false
}

// CheckNames returns the registry's names, sorted.
func CheckNames() []string {
	cs := Checks()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// mustDist builds a Distribution from counts; the registry's inputs are
// compile-time constants, so failure is a programming error.
func mustDist(counts map[int64]int64) (*degseq.Distribution, error) {
	dist, err := degseq.FromCounts(counts)
	if err != nil {
		return nil, fmt.Errorf("statcheck: bad registry distribution: %w", err)
	}
	return dist, nil
}

// runSwapUniformity checks that the raw swap engine, started from a
// fixed Havel-Hakimi realization and run for swapChainIterations from
// an independent seed per draw, samples the enumerated space uniformly.
// One engine serves every draw (SetSeed + Reset), which is also the
// reuse idiom the engine documents — so the check covers it.
func runSwapUniformity(cfg Config, name string, counts map[int64]int64, defaultSamples int) (*CheckResult, error) {
	dist, err := mustDist(counts)
	if err != nil {
		return nil, err
	}
	space, err := EnumerateSimpleGraphs(dist, name)
	if err != nil {
		return nil, err
	}
	start, err := havelhakimi.Generate(dist)
	if err != nil {
		return nil, err
	}
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	eng := swap.NewEngine(el, swap.Options{
		Iterations: swapChainIterations,
		Workers:    cfg.Workers,
		Seed:       0, // per-draw via SetSeed
	})
	defer eng.Close()
	return CheckUniformity(name, space, defaultSamples, cfg, func(attemptSeed uint64, i int) (string, error) {
		copy(el.Edges, start.Edges)
		eng.SetSeed(SampleSeed(attemptSeed, i))
		eng.Reset(el)
		swap.Drive(eng, swap.Budget(swapChainIterations))
		return SignatureOfEdges(el.Edges), nil
	})
}

// runSpaceChainUniformity is the per-cell gate of the space matrix:
// the cell's swap chain, started from an enumerated member and run for
// spaceChainIterations from an independent seed per draw, must sample
// the cell's exact target — uniform over distinct graphs for the
// vertex-labeled cells, stub-matching-weighted for the stub-labeled
// ones. The degree sequences are chosen so the double-edge-swap chain
// is irreducible on the cell (loopy spaces are disconnected for some
// sequences, e.g. all-degree-2 ones whose all-loop state is isolated).
func runSpaceChainUniformity(cfg Config, name string, counts map[int64]int64, sp graph.Space, defaultSamples int) (*CheckResult, error) {
	dist, err := mustDist(counts)
	if err != nil {
		return nil, err
	}
	enum, err := EnumerateSpaceGraphs(dist, sp, name)
	if err != nil {
		return nil, err
	}
	start := enum.Start
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	eng := swap.NewEngine(el, swap.Options{
		Space:      sp,
		Iterations: spaceChainIterations,
		Workers:    cfg.Workers,
		Seed:       0, // per-draw via SetSeed
	})
	defer eng.Close()
	draw := func(attemptSeed uint64, i int) (string, error) {
		copy(el.Edges, start.Edges)
		eng.SetSeed(SampleSeed(attemptSeed, i))
		eng.Reset(el)
		swap.Drive(eng, swap.Budget(spaceChainIterations))
		return SignatureOfEdges(el.Edges), nil
	}
	if enum.StubProbs != nil {
		return CheckWeightedUniformity(name, enum.Space, enum.StubProbs, defaultSamples, cfg, draw)
	}
	return CheckUniformity(name, enum.Space, defaultSamples, cfg, draw)
}

// runConnectedSwapUniformity is the connected sampler's uniformity
// gate: the connectivity-preserving chain (Options.Connected), started
// from a connected.Realize seed graph and run for
// connectedChainIterations from an independent seed per draw, must
// sample the *connected subspace* of the enumerated cell uniformly.
// The target space deliberately excludes the disconnected states, so
// the gate rejects in both failure directions: a chain that leaks a
// disconnected graph leaves the enumerated space (a hard error from
// CheckUniformity, not a p-value), while a chain that over-rejects —
// freezing on part of the connected subspace — fails the chi-square.
func runConnectedSwapUniformity(cfg Config, name string, counts map[int64]int64, defaultSamples int) (*CheckResult, error) {
	dist, err := mustDist(counts)
	if err != nil {
		return nil, err
	}
	full, err := EnumerateSimpleGraphs(dist, name+"-full")
	if err != nil {
		return nil, err
	}
	space, err := ConnectedSubspace(full, int(dist.NumVertices()), name)
	if err != nil {
		return nil, err
	}
	start, err := connected.Realize(dist)
	if err != nil {
		return nil, err
	}
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	eng := swap.NewEngine(el, swap.Options{
		Connected:  true,
		Iterations: connectedChainIterations,
		Workers:    cfg.Workers,
		Seed:       0, // per-draw via SetSeed
	})
	defer eng.Close()
	return CheckUniformity(name, space, defaultSamples, cfg, func(attemptSeed uint64, i int) (string, error) {
		copy(el.Edges, start.Edges)
		eng.SetSeed(SampleSeed(attemptSeed, i))
		eng.Reset(el)
		swap.Drive(eng, swap.Budget(connectedChainIterations))
		return SignatureOfEdges(el.Edges), nil
	})
}

// runShuffleSessionUniformity checks the public pipeline surface: a
// reused core.Engine whose ShuffleSample batch schedule (sample index →
// derived seed) produces uniform draws. This locks the session seed
// schedule itself, not just the underlying chain.
func runShuffleSessionUniformity(cfg Config, name string, counts map[int64]int64, defaultSamples int) (*CheckResult, error) {
	dist, err := mustDist(counts)
	if err != nil {
		return nil, err
	}
	space, err := EnumerateSimpleGraphs(dist, name)
	if err != nil {
		return nil, err
	}
	start, err := havelhakimi.Generate(dist)
	if err != nil {
		return nil, err
	}
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	var eng *core.Engine
	var engSeed uint64
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	return CheckUniformity(name, space, defaultSamples, cfg, func(attemptSeed uint64, i int) (string, error) {
		if eng == nil || engSeed != attemptSeed {
			if eng != nil {
				eng.Close()
			}
			eng = core.NewEngine(core.Options{
				Workers:        cfg.Workers,
				Seed:           attemptSeed,
				SwapIterations: swapChainIterations,
			})
			engSeed = attemptSeed
		}
		copy(el.Edges, start.Edges)
		if _, err := eng.ShuffleSample(el, uint64(i), nil); err != nil {
			return "", err
		}
		return SignatureOfEdges(el.Edges), nil
	})
}

// runAdaptiveShuffleUniformity is the adaptive stopper's uniformity
// gate: ShuffleSample draws with a StopPolicy whose Floor equals the
// fixed-scan budget must stay uniform even though each sample's total
// iteration count now depends on its own trace. The floor guarantees
// every sample is past mixing before the monitor may fire (the
// converge tests pin that the stopper never fires inside the floor);
// the draw itself re-asserts it so a floor regression fails loudly
// here too. Growth is dense (1.05) so checkpoints — and hence
// state-dependent stop opportunities — are as frequent as the
// schedule allows, the adversarial setting for stopping-time bias.
func runAdaptiveShuffleUniformity(cfg Config, name string, counts map[int64]int64, defaultSamples int) (*CheckResult, error) {
	dist, err := mustDist(counts)
	if err != nil {
		return nil, err
	}
	space, err := EnumerateSimpleGraphs(dist, name)
	if err != nil {
		return nil, err
	}
	start, err := havelhakimi.Generate(dist)
	if err != nil {
		return nil, err
	}
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	var eng *core.Engine
	var engSeed uint64
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	return CheckUniformity(name, space, defaultSamples, cfg, func(attemptSeed uint64, i int) (string, error) {
		if eng == nil || engSeed != attemptSeed {
			if eng != nil {
				eng.Close()
			}
			eng = core.NewEngine(core.Options{
				Workers: cfg.Workers,
				Seed:    attemptSeed,
				StopPolicy: &converge.Policy{
					Floor:  swapChainIterations,
					Budget: 2 * swapChainIterations,
					Growth: 1.05,
				},
			})
			engSeed = attemptSeed
		}
		copy(el.Edges, start.Edges)
		res, err := eng.ShuffleSample(el, uint64(i), nil)
		if err != nil {
			return "", err
		}
		if res.Stop == nil || res.Stop.Policy != "adaptive" {
			return "", fmt.Errorf("adaptive draw missing stop report: %+v", res.Stop)
		}
		if res.Stop.Iterations < swapChainIterations {
			return "", fmt.Errorf("stopper fired at iteration %d, inside the floor %d",
				res.Stop.Iterations, swapChainIterations)
		}
		return SignatureOfEdges(el.Edges), nil
	})
}

// derangementJoint is the out=in=1 joint distribution on n vertices; its
// simple digraphs are exactly the derangements of S_n.
func derangementJoint(n int64) *directed.JointDistribution {
	return &directed.JointDistribution{Classes: []directed.JointClass{{Out: 1, In: 1, Count: n}}}
}

// runDirectedSwapUniformity checks the directed swap chain (pair
// exchanges + triangle-reversal sweeps) against the enumerated
// derangement space. n=3 is the ergodicity regression: its two states
// are connected only through triangle reversal.
func runDirectedSwapUniformity(cfg Config, name string, n int64, defaultSamples int) (*CheckResult, error) {
	d := derangementJoint(n)
	space, err := EnumerateSimpleDigraphs(d, name)
	if err != nil {
		return nil, err
	}
	start, err := directed.KleitmanWang(d)
	if err != nil {
		return nil, err
	}
	al := start.Clone()
	return CheckUniformity(name, space, defaultSamples, cfg, func(attemptSeed uint64, i int) (string, error) {
		copy(al.Arcs, start.Arcs)
		if _, err := directed.Shuffle(al, directed.Options{
			SwapIterations: directedChainIterations,
			Workers:        cfg.Workers,
			Seed:           SampleSeed(attemptSeed, i),
		}); err != nil {
			return "", err
		}
		return SignatureOfArcs(al.Arcs), nil
	})
}

// edgeskipFixture is the shared input of the marginals check: a 5-vertex
// distribution with two degree classes and a hand-picked probability
// matrix strictly inside (0,1), so every one of the 10 vertex pairs is a
// testable Bernoulli marginal.
func edgeskipFixture() (*degseq.Distribution, *probgen.Matrix, error) {
	dist, err := mustDist(map[int64]int64{1: 3, 2: 2})
	if err != nil {
		return nil, nil, err
	}
	m := probgen.NewMatrix(2)
	m.Set(0, 0, 0.25)
	m.Set(0, 1, 0.5)
	m.Set(1, 1, 0.75)
	return dist, m, nil
}

// runEdgeskipMarginals checks Algorithm IV.2's per-pair Bernoulli
// marginals: every vertex pair (u, v) must be an edge with exactly
// probability P[class(u)][class(v)]. perturb, when non-nil, modifies the
// probability vector the *statistic* expects (not the sampler's input) —
// the biased-direction tests use it to prove the harness rejects a
// mismatched model.
func runEdgeskipMarginals(cfg Config, name string, perturb func(probs []float64), defaultSamples int) (*CheckResult, error) {
	dist, m, err := edgeskipFixture()
	if err != nil {
		return nil, err
	}
	n := int(dist.NumVertices())
	offsets := dist.VertexOffsets(1)

	// Pair index k ↔ vertex pair (u, v), u < v, in lexicographic order.
	type pair struct{ u, v int32 }
	var pairs []pair
	var probs []float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			ci := degseq.ClassOfVertex(offsets, int64(u))
			cj := degseq.ClassOfVertex(offsets, int64(v))
			pairs = append(pairs, pair{int32(u), int32(v)})
			probs = append(probs, m.At(ci, cj))
		}
	}
	pairIndex := make(map[uint64]int, len(pairs))
	for k, pr := range pairs {
		pairIndex[graph.Edge{U: pr.u, V: pr.v}.Key()] = k
	}
	if perturb != nil {
		perturb(probs)
	}

	gen := edgeskip.NewGenerator(edgeskip.Options{Workers: cfg.Workers})
	return CheckBernoulliMarginals(name, probs, defaultSamples, cfg, func(attemptSeed uint64, i int, hit []bool) error {
		el, err := gen.Generate(dist, m, SampleSeed(attemptSeed, i), nil)
		if err != nil {
			return err
		}
		for _, e := range el.Edges {
			k, ok := pairIndex[e.Key()]
			if !ok {
				return fmt.Errorf("edge %v outside the pair space", e)
			}
			hit[k] = true
		}
		return nil
	})
}

// probgenFixture is the degree-fidelity check's input: three degree
// classes whose probgen matrix stays strictly inside (0,1).
func probgenFixture() (*degseq.Distribution, *probgen.Matrix, error) {
	dist, err := mustDist(map[int64]int64{1: 4, 2: 3, 3: 2})
	if err != nil {
		return nil, nil, err
	}
	m := probgen.Generate(dist, 1)
	m.Clamp()
	return dist, m, nil
}

// runProbgenDegreeFidelity samples graphs from probgen's analytic matrix
// through the edge-skipping generator and z-tests each class's total
// degree against the exact Bernoulli moments. Because probgen's matrix
// is constructed so that expected class degrees equal the target
// degrees (row residuals ≈ 0), this locks expected-degree fidelity of
// the whole probgen → edgeskip pipeline.
func runProbgenDegreeFidelity(cfg Config, name string, defaultSamples int) (*CheckResult, error) {
	dist, m, err := probgenFixture()
	if err != nil {
		return nil, err
	}
	mean, variance := metrics.BernoulliClassDegreeMoments(dist, m)
	offsets := dist.VertexOffsets(1)
	gen := edgeskip.NewGenerator(edgeskip.Options{Workers: cfg.Workers})
	return CheckClassMoments(name, mean, variance, defaultSamples, cfg, func(attemptSeed uint64, i int, totals []float64) error {
		el, err := gen.Generate(dist, m, SampleSeed(attemptSeed, i), nil)
		if err != nil {
			return err
		}
		for _, e := range el.Edges {
			totals[degseq.ClassOfVertex(offsets, int64(e.U))]++
			totals[degseq.ClassOfVertex(offsets, int64(e.V))]++
		}
		return nil
	})
}
