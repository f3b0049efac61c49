package lfr

import (
	"math"
	"testing"

	"nullgraph/internal/core"
	"nullgraph/internal/graph"
)

func baseConfig() Config {
	return Config{
		NumVertices:    3000,
		DegreeGamma:    2.2,
		MinDegree:      3,
		MaxDegree:      60,
		CommunityGamma: 1.8,
		MinCommunity:   30,
		MaxCommunity:   300,
		Mu:             0.3,
		SwapIterations: 3,
		Workers:        4,
		Seed:           42,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumVertices = 0 },
		func(c *Config) { c.Mu = -0.1 },
		func(c *Config) { c.Mu = 1.1 },
		func(c *Config) { c.MinDegree = 0 },
		func(c *Config) { c.MaxDegree = 1 },
		func(c *Config) { c.MinCommunity = 1 },
		func(c *Config) { c.MaxCommunity = 10 },
		func(c *Config) { c.MaxCommunity = 99999 },
		func(c *Config) { c.DegreeGamma = 0 },
		func(c *Config) { c.MaxDegree = 3000 },
	}
	for i, mutate := range mutations {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, c)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	res, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("LFR output not simple: %+v", rep)
	}
	if res.Graph.NumVertices != 3000 {
		t.Errorf("vertices = %d", res.Graph.NumVertices)
	}
	// Every vertex in exactly one community.
	seen := make([]int, 3000)
	for _, comm := range res.Communities {
		if len(comm) == 0 {
			t.Error("empty community")
		}
		for _, v := range comm {
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d in %d communities", v, c)
		}
	}
	// Community sizes within the configured range (last may be trimmed
	// or folded, allow slack up to max+min).
	for _, comm := range res.Communities {
		if int64(len(comm)) > baseConfig().MaxCommunity+baseConfig().MinCommunity {
			t.Errorf("community of size %d exceeds range", len(comm))
		}
	}
}

func TestGenerateMixingParameter(t *testing.T) {
	for _, mu := range []float64{0.1, 0.5} {
		cfg := baseConfig()
		cfg.Mu = mu
		res, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Observed mixing within a tolerant band: duplicates erased and
		// parity repairs shift it slightly.
		if math.Abs(res.ObservedMu-mu) > 0.12 {
			t.Errorf("mu=%v: observed %v", mu, res.ObservedMu)
		}
	}
}

func TestGenerateDegreesApproximateTarget(t *testing.T) {
	cfg := baseConfig()
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deg := res.Graph.Degrees(2)
	var targetSum, gotSum float64
	for v := range deg {
		targetSum += float64(res.Degrees[v])
		gotSum += float64(deg[v])
	}
	// Allow a several-percent shortfall for drops/duplicates/residuals.
	if gotSum < 0.85*targetSum || gotSum > 1.05*targetSum {
		t.Errorf("total degree %v vs target %v", gotSum, targetSum)
	}
}

func TestGenerateMuExtremes(t *testing.T) {
	// Mu = 0: (almost) no cross-community edges.
	cfg := baseConfig()
	cfg.Mu = 0
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ObservedMu > 0.02 {
		t.Errorf("mu=0: observed %v", res.ObservedMu)
	}
	// Mu = 1: no intra-community structure is enforced; observed should
	// be high (random graph crosses communities most of the time).
	cfg.Mu = 1
	res, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ObservedMu < 0.7 {
		t.Errorf("mu=1: observed %v", res.ObservedMu)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	// Exact reproducibility needs Workers=1 (parallel swaps race
	// benignly; see swap.Options.Seed).
	cfg := baseConfig()
	cfg.Workers = 1
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Graph.EqualAsSets(b.Graph) {
		t.Error("same config+seed gave different graphs")
	}
}

func TestGenerateLayeredLambdaValidation(t *testing.T) {
	deg := []int64{2, 2, 2, 2}
	groups := [][]int32{{0, 1, 2, 3}}
	if _, err := GenerateLayered(deg, []Layer{{Groups: groups, Lambda: 0.5}}, core.Options{}, nil); err == nil {
		t.Error("lambda sum != 1 accepted")
	}
	if _, err := GenerateLayered(deg, []Layer{{Groups: groups, Lambda: -0.2}, {Groups: groups, Lambda: 1.2}}, core.Options{}, nil); err == nil {
		t.Error("out-of-range lambda accepted")
	}
	if _, err := GenerateLayered(nil, []Layer{{Groups: groups, Lambda: 1}}, core.Options{}, nil); err == nil {
		t.Error("empty degrees accepted")
	}
}

func TestGenerateLayeredSingleLayerIsPlainGeneration(t *testing.T) {
	deg := make([]int64, 500)
	for i := range deg {
		deg[i] = 4
	}
	res, err := GenerateLayered(deg, []Layer{{
		Groups: [][]int32{allVertices(500)},
		Lambda: 1,
	}}, core.Options{Workers: 2, Seed: 9, SwapIterations: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
	got := res.Graph.Degrees(1)
	var sum int64
	for _, d := range got {
		sum += d
	}
	if math.Abs(float64(sum)-2000) > 150 {
		t.Errorf("total degree %d, want ~2000", sum)
	}
}

func TestGenerateLayeredThreeLevels(t *testing.T) {
	// A 3-level hierarchy: 4 leaf groups, 2 mid groups, 1 global.
	const n = 800
	deg := make([]int64, n)
	for i := range deg {
		deg[i] = 8
	}
	leaf := make([][]int32, 4)
	mid := make([][]int32, 2)
	for v := int32(0); v < n; v++ {
		leaf[v/200] = append(leaf[v/200], v)
		mid[v/400] = append(mid[v/400], v)
	}
	res, err := GenerateLayered(deg, []Layer{
		{Groups: leaf, Lambda: 0.5},
		{Groups: mid, Lambda: 0.3},
		{Groups: [][]int32{allVertices(n)}, Lambda: 0.2},
	}, core.Options{Workers: 4, Seed: 17, SwapIterations: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
	// Leaf-internal edge fraction: the leaf layer contributes its full
	// 0.5 share, and the mid/global layers land inside a leaf by chance
	// (≈1/2 within a mid group of two leaves, ≈1/4 globally):
	// 0.5 + 0.3·0.5 + 0.2·0.25 ≈ 0.70.
	var leafInternal, midInternal int
	for _, e := range res.Graph.Edges {
		if e.U/200 == e.V/200 {
			leafInternal++
		}
		if e.U/400 == e.V/400 {
			midInternal++
		}
	}
	leafFrac := float64(leafInternal) / float64(res.Graph.NumEdges())
	if math.Abs(leafFrac-0.70) > 0.08 {
		t.Errorf("leaf-internal fraction %v, want ~0.70", leafFrac)
	}
	// Mid-internal: 0.5 + 0.3 + 0.2·0.5 ≈ 0.90.
	midFrac := float64(midInternal) / float64(res.Graph.NumEdges())
	if math.Abs(midFrac-0.90) > 0.08 {
		t.Errorf("mid-internal fraction %v, want ~0.90", midFrac)
	}
}

func TestSplitDegreesExact(t *testing.T) {
	deg := []int64{7, 1, 0, 13}
	layers := []Layer{{Lambda: 0.6}, {Lambda: 0.4}}
	splits := splitDegrees(deg, layers)
	for v, d := range deg {
		var sum int64
		for li := range layers {
			if splits[li][v] < 0 {
				t.Fatalf("negative split at layer %d vertex %d", li, v)
			}
			sum += splits[li][v]
		}
		if sum != d {
			t.Errorf("vertex %d: splits sum %d, want %d", v, sum, d)
		}
	}
}

func TestGenerateGroupTooSmall(t *testing.T) {
	// Groups of size < 2 produce nothing and drop their stubs.
	edges, dropped, err := generateGroup([]int32{5}, []int64{0, 0, 0, 0, 0, 3}, core.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 0 || dropped != 3 {
		t.Errorf("edges=%d dropped=%d, want 0/3", len(edges), dropped)
	}
}

func TestObservedMuIsolatedVertices(t *testing.T) {
	el := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}}, 3)
	// Vertex 2 unassigned; edge (0,1) internal to community 0.
	mu := observedMu(el, [][]int32{{0, 1}}, 3)
	if mu != 0 {
		t.Errorf("observedMu = %v, want 0", mu)
	}
}
