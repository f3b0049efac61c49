package statcheck

import (
	"math"
	"testing"

	"nullgraph/internal/graph"
	"nullgraph/internal/havelhakimi"
	"nullgraph/internal/metrics"
	"nullgraph/internal/swap"
)

// TestStatcheckSuite is the tier-2 gate: every registry check must pass
// at a fixed seed with single-worker samplers. Budgets are the
// documented defaults (DESIGN.md §11); the run takes a few seconds, so
// -short skips it.
func TestStatcheckSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 statistical suite (run without -short, or `make test-stat`)")
	}
	rep, err := RunChecks(nil, Config{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != len(Checks()) {
		t.Fatalf("ran %d checks, registry has %d", len(rep.Checks), len(Checks()))
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("%s REJECTED: final attempt stat=%v dof=%d p=%v (alpha=%v, %d attempts)",
				c.Name, c.Attempts[len(c.Attempts)-1].Stat, c.Attempts[len(c.Attempts)-1].Dof,
				c.P(), c.Alpha, len(c.Attempts))
		}
	}
	if !rep.Pass {
		t.Error("report verdict false")
	}
}

// TestStatcheckSuiteParallelWorkers re-runs the uniformity checks with
// a multi-worker sampler: parallelism must not change the sampled
// distribution. Tier-2 (skipped under -short).
func TestStatcheckSuiteParallelWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 statistical suite")
	}
	for _, name := range []string{"swap-matchings-k6", "directed-derangements-n4", "connected-uniformity-c6"} {
		c, ok := CheckByName(name)
		if !ok {
			t.Fatalf("unknown check %s", name)
		}
		res, err := c.Run(Config{Seed: 7, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Errorf("%s with 4 workers REJECTED (p=%v)", name, res.P())
		}
	}
}

// TestStatcheckRejectsZeroIterationSwap locks the other direction: a
// swap "sampler" that never swaps (0 iterations from a fixed start)
// must be rejected deterministically — every attempt lands all mass on
// the start state.
func TestStatcheckRejectsZeroIterationSwap(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{1: 6})
	space, err := EnumerateSimpleGraphs(dist, "k6")
	if err != nil {
		t.Fatal(err)
	}
	start, err := havelhakimi.Generate(dist)
	if err != nil {
		t.Fatal(err)
	}
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	cfg := Config{Seed: 3, Workers: 1, Samples: 300}
	res, err := CheckUniformity("zero-iteration-swap", space, 300, cfg, func(attemptSeed uint64, i int) (string, error) {
		copy(el.Edges, start.Edges)
		swap.Run(el, swap.Options{Iterations: 0, Workers: 1, Seed: SampleSeed(attemptSeed, i)})
		return SignatureOfEdges(el.Edges), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("frozen sampler passed the uniformity gate")
	}
	if len(res.Attempts) != cfg.maxAttempts() {
		t.Errorf("rejection after %d attempts, want the full retry budget %d", len(res.Attempts), cfg.maxAttempts())
	}
	for _, a := range res.Attempts {
		// All 300 draws on one of 15 states: stat = 300·14 exactly.
		if a.Stat != 300*14 {
			t.Errorf("attempt stat = %v, want 4200", a.Stat)
		}
		if a.P >= res.Alpha {
			t.Errorf("attempt p = %v not below alpha %v", a.P, res.Alpha)
		}
	}
}

// spaceChainDraw builds a per-draw closure running the cell's chain
// from an enumerated start, mirroring runSpaceChainUniformity.
func spaceChainDraw(t *testing.T, counts map[int64]int64, sp graph.Space) (*SpaceEnumeration, func(attemptSeed uint64, i int) (string, error), func()) {
	t.Helper()
	dist := mustCounts(t, counts)
	enum, err := EnumerateSpaceGraphs(dist, sp, "biased-"+sp.String())
	if err != nil {
		t.Fatal(err)
	}
	start := enum.Start
	el := graph.NewEdgeList(append([]graph.Edge(nil), start.Edges...), start.NumVertices)
	eng := swap.NewEngine(el, swap.Options{Space: sp, Iterations: spaceChainIterations, Workers: 1})
	draw := func(attemptSeed uint64, i int) (string, error) {
		copy(el.Edges, start.Edges)
		eng.SetSeed(SampleSeed(attemptSeed, i))
		eng.Reset(el)
		swap.Drive(eng, swap.Budget(spaceChainIterations))
		return SignatureOfEdges(el.Edges), nil
	}
	return enum, draw, eng.Close
}

// TestStatcheckRejectsMislabeledSpaceChains locks rejection in BOTH
// labeling directions on the loopy {1,1,2,2} cell, whose stub target
// (4,4,2,2,1)/13 is far from uniform: a correct stub-labeled chain
// tested against the uniform (vertex-labeled) target must fail, and a
// correct vertex-labeled chain tested against the stub-weighted target
// must fail. Together with the passing per-cell gates this shows the
// harness distinguishes the two labelings, not merely that chains
// "look mixed".
func TestStatcheckRejectsMislabeledSpaceChains(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 statistical suite")
	}
	cfg := Config{Seed: 11, Workers: 1, Samples: 2000}

	// Direction 1: stub chain vs uniform target.
	enum, draw, done := spaceChainDraw(t, map[int64]int64{1: 2, 2: 2}, graph.LoopyStub)
	res, err := CheckUniformity("stub-chain-vs-uniform", enum.Space, 2000, cfg, draw)
	done()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Errorf("stub-labeled chain passed the uniform gate (p=%v); the labelings are indistinguishable", res.P())
	}

	// Direction 2: vertex chain vs stub-weighted target. The weighted
	// target comes from a stub-labeled enumeration of the same cell.
	weighted, werr := EnumerateSpaceGraphs(mustCounts(t, map[int64]int64{1: 2, 2: 2}), graph.LoopyStub, "weighted-target")
	if werr != nil {
		t.Fatal(werr)
	}
	enum2, draw2, done2 := spaceChainDraw(t, map[int64]int64{1: 2, 2: 2}, graph.LoopyVertex)
	res, err = CheckWeightedUniformity("vertex-chain-vs-stub", enum2.Space, weighted.StubProbs, 2000, cfg, draw2)
	done2()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Errorf("vertex-labeled chain passed the stub-weighted gate (p=%v)", res.P())
	}
}

// TestStatcheckWeightedUniformityValidates: a probability vector that
// does not match the state space is a usage error.
func TestStatcheckWeightedUniformityValidates(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{1: 6})
	space, err := EnumerateSimpleGraphs(dist, "k6")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CheckWeightedUniformity("bad", space, []float64{0.5, 0.5}, 10, Config{Seed: 1},
		func(uint64, int) (string, error) { return "", nil })
	if err == nil {
		t.Fatal("mismatched probability vector accepted")
	}
}

// TestStatcheckRejectsPerturbedEdgeskip locks rejection for the
// Bernoulli-marginal family: the true edge-skipping sampler tested
// against a perturbed probability model must fail.
func TestStatcheckRejectsPerturbedEdgeskip(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 statistical suite")
	}
	res, err := runEdgeskipMarginals(Config{Seed: 5, Workers: 1}, "edgeskip-perturbed", func(probs []float64) {
		for k := range probs {
			probs[k] = math.Min(probs[k]+0.1, 0.95)
		}
	}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("sampler passed against a perturbed probability model")
	}
}

// TestStatcheckRejectsShiftedMoments locks rejection for the
// class-moment family with a deterministic off-mean sampler.
func TestStatcheckRejectsShiftedMoments(t *testing.T) {
	mean := []float64{10, 20}
	variance := []float64{4, 4}
	cfg := Config{Seed: 2, Samples: 100}
	res, err := CheckClassMoments("shifted", mean, variance, 100, cfg, func(attemptSeed uint64, i int, totals []float64) error {
		totals[0] = mean[0] + 3 // +1.5 sd per draw ⇒ z explodes with n
		totals[1] = mean[1]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("shifted sampler passed the moment gate")
	}
	// And the exact-mean sampler passes with z = 0.
	res, err = CheckClassMoments("exact", mean, variance, 100, cfg, func(attemptSeed uint64, i int, totals []float64) error {
		totals[0], totals[1] = mean[0], mean[1]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || res.Attempts[0].Stat != 0 {
		t.Errorf("exact-mean sampler: pass=%v stat=%v", res.Pass, res.Attempts[0].Stat)
	}
}

// TestStatcheckOutOfSpaceDrawIsError: leaving the enumerated space is a
// correctness bug, not a statistical rejection.
func TestStatcheckOutOfSpaceDrawIsError(t *testing.T) {
	dist := mustCounts(t, map[int64]int64{1: 2})
	space, err := EnumerateSimpleGraphs(dist, "one-edge")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CheckUniformity("escape", space, 10, Config{Seed: 1}, func(attemptSeed uint64, i int) (string, error) {
		return "not-a-state", nil
	})
	if err == nil {
		t.Fatal("out-of-space draw did not error")
	}
}

// TestStatcheckRetrySeedsDiffer: each retry attempt must use a distinct
// derived seed, and sample seeds must differ across attempts.
func TestStatcheckRetrySeedsDiffer(t *testing.T) {
	s0, s1 := AttemptSeed(9, 0), AttemptSeed(9, 1)
	if s0 == s1 {
		t.Error("attempt seeds collide")
	}
	if SampleSeed(s0, 0) == SampleSeed(s1, 0) {
		t.Error("sample seeds collide across attempts")
	}
	if SampleSeed(s0, 0) == SampleSeed(s0, 1) {
		t.Error("sample seeds collide within an attempt")
	}
}

func TestStatcheckConfigDefaults(t *testing.T) {
	var c Config
	if c.alpha() != 1e-3 || c.maxAttempts() != 3 || c.samples(500) != 500 {
		t.Errorf("defaults: alpha=%v attempts=%d samples=%d", c.alpha(), c.maxAttempts(), c.samples(500))
	}
	c = Config{Alpha: 0.01, MaxAttempts: 1, Samples: 42}
	if c.alpha() != 0.01 || c.maxAttempts() != 1 || c.samples(500) != 42 {
		t.Error("overrides ignored")
	}
}

func TestStatcheckRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Checks() {
		if c.Name == "" || c.Description == "" || c.DefaultSamples <= 0 || c.Run == nil {
			t.Errorf("incomplete registry entry %+v", c.Name)
		}
		if names[c.Name] {
			t.Errorf("duplicate check name %s", c.Name)
		}
		names[c.Name] = true
	}
	if _, ok := CheckByName("swap-matchings-k6"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := CheckByName("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

// TestStatcheckProbgenMomentsMatchTargets ties the analytic Bernoulli
// moments to the target degrees: probgen's matrix must give every class
// an expected total degree equal to count·degree (the row-residual
// property, restated through the moments the tier-2 check uses).
func TestStatcheckProbgenMomentsMatchTargets(t *testing.T) {
	dist, m, err := probgenFixture()
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := metrics.BernoulliClassDegreeMoments(dist, m)
	for j, cls := range dist.Classes {
		want := float64(cls.Count * cls.Degree)
		if math.Abs(mean[j]-want) > 1e-6*want {
			t.Errorf("class %d: expected total degree %v, want %v", j, mean[j], want)
		}
		if variance[j] <= 0 {
			t.Errorf("class %d: non-positive variance %v", j, variance[j])
		}
	}
}
