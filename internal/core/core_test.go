package core

import (
	"math"
	"testing"

	"nullgraph/internal/degseq"
	"nullgraph/internal/graph"
	"nullgraph/internal/metrics"
	"nullgraph/internal/swap"
)

func mustDist(t testing.TB, counts map[int64]int64) *degseq.Distribution {
	t.Helper()
	d, err := degseq.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func powerlaw(t testing.TB, n int64, dmax int64, gamma float64, seed uint64) *degseq.Distribution {
	t.Helper()
	d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: n, MinDegree: 1, MaxDegree: dmax, Gamma: gamma, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// generate draws sample 0 of opt's batch on a single-use Engine.
func generate(d *degseq.Distribution, opt Options) (*Result, error) {
	eng := NewEngine(opt)
	defer eng.Close()
	return eng.GenerateSample(d, 0, nil)
}

// shuffle mixes el in place as sample 0 of opt's batch on a single-use
// Engine.
func shuffle(el *graph.EdgeList, opt Options) (*Result, error) {
	eng := NewEngine(opt)
	defer eng.Close()
	return eng.ShuffleSample(el, 0, nil)
}

func TestFromDistributionEndToEnd(t *testing.T) {
	d := powerlaw(t, 5000, 300, 2.2, 3)
	res, err := generate(d, Options{Workers: 4, Seed: 7, SwapIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("pipeline output not simple: %+v", rep)
	}
	if res.Graph.NumVertices != int(d.NumVertices()) {
		t.Errorf("vertices = %d, want %d", res.Graph.NumVertices, d.NumVertices())
	}
	// Output edge count within a few percent of target.
	q := metrics.Quality(res.Graph, d, 4)
	if math.Abs(q.Edges) > 0.08 {
		t.Errorf("edge count error %v, want within 8%%", q.Edges)
	}
	if len(res.Swaps.PerIteration) != 8 {
		t.Errorf("swap iterations recorded = %d, want 8", len(res.Swaps.PerIteration))
	}
	if res.Probabilities == nil || res.Probabilities.Dim() != d.NumClasses() {
		t.Error("probability matrix missing or mis-sized")
	}
	if res.Phases.Total() <= 0 {
		t.Error("phase times not recorded")
	}
}

func TestFromDistributionDegreesTrackTarget(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 3000, 8: 300, 30: 10})
	res, err := generate(d, Options{Workers: 4, Seed: 11, SwapIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Swaps preserve degrees, so the realized distribution equals what
	// edge-skipping drew; class averages must track targets.
	offsets := d.VertexOffsets(1)
	deg := res.Graph.Degrees(2)
	for c, cl := range d.Classes {
		var s int64
		for v := offsets[c]; v < offsets[c+1]; v++ {
			s += deg[v]
		}
		got := float64(s) / float64(cl.Count)
		want := float64(cl.Degree)
		if math.Abs(got-want) > 0.15*want+0.3 {
			t.Errorf("class %d: avg degree %v, want ~%v", c, got, want)
		}
	}
}

func TestFromDistributionMixUntilSwapped(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 2000, 6: 100})
	res, err := generate(d, Options{Workers: 4, Seed: 5, MixUntilSwapped: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mixed {
		t.Errorf("did not reach full mixing in %d iterations", len(res.Swaps.PerIteration))
	}
	last := res.Swaps.PerIteration[len(res.Swaps.PerIteration)-1]
	if last.EverSwapped < 1.0 {
		t.Errorf("EverSwapped = %v at exit", last.EverSwapped)
	}

	// A reused session mixes every sample of a batch.
	eng := NewEngine(Options{Workers: 2, Seed: 9, MixUntilSwapped: true})
	defer eng.Close()
	for sample := uint64(0); sample < 2; sample++ {
		res, err := eng.ShuffleSample(ringEdges(256), sample, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mixed || res.Stop.Reason != "mixed" {
			t.Fatalf("sample %d: 256-ring did not mix in %d iterations (stop %+v)", sample, swap.MixCap, res.Stop)
		}
	}
}

func TestFromDistributionRejectsInvalid(t *testing.T) {
	bad := &degseq.Distribution{Classes: []degseq.Class{{Degree: 2, Count: 0}}}
	if _, err := generate(bad, Options{}); err == nil {
		t.Error("invalid distribution accepted")
	}
}

func TestFromDistributionZeroSwaps(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 500})
	res, err := generate(d, Options{Workers: 2, Seed: 1, SwapIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Swaps.PerIteration) != 0 {
		t.Error("swap stats recorded despite zero iterations")
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Errorf("edge-skipping output must be simple even unswapped: %+v", rep)
	}
}

func TestFromEdgeList(t *testing.T) {
	// A ring, mixed in place.
	n := 600
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	el := graph.NewEdgeList(edges, n)
	orig := el.Clone()
	res, err := shuffle(el, Options{Workers: 4, Seed: 13, SwapIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != el {
		t.Error("ShuffleSample must mutate in place")
	}
	if el.EqualAsSets(orig) {
		t.Error("graph unchanged after 6 iterations")
	}
	if rep := el.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("not simple: %+v", rep)
	}
	if res.Phases.Probabilities != 0 || res.Phases.EdgeGeneration != 0 {
		t.Error("edge-list entry point should only record swap time")
	}
}

// TestFromEdgeListValidation pins the edge-list entry points' input
// contract: nil and out-of-range inputs fail with a defined error
// instead of panicking in the swap engine, while empty and single-edge
// lists are valid no-ops (no pair to swap).
func TestFromEdgeListValidation(t *testing.T) {
	opt := Options{Workers: 1, Seed: 1, SwapIterations: 3}

	if _, err := shuffle(nil, opt); err == nil {
		t.Error("nil edge list accepted")
	}
	bad := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}}, 2)
	bad.Edges[0].V = 7 // corrupt after construction, as a caller could
	if _, err := shuffle(bad, opt); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	neg := graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}}, 2)
	neg.Edges[0].U = -1
	if _, err := shuffle(neg, opt); err == nil {
		t.Error("negative endpoint accepted")
	}

	for name, el := range map[string]*graph.EdgeList{
		"empty":       graph.NewEdgeList(nil, 4),
		"single-edge": graph.NewEdgeList([]graph.Edge{{U: 0, V: 1}}, 2),
	} {
		res, err := shuffle(el, opt)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Graph != el {
			t.Errorf("%s: result must reference the input in place", name)
		}
	}
}

func TestFromDistributionDeterministic(t *testing.T) {
	// Bit-exact only with a single worker (parallel swap proposals race
	// benignly; see swap.Options.Seed).
	d := mustDist(t, map[int64]int64{3: 800, 9: 40})
	a, err := generate(d, Options{Workers: 1, Seed: 21, SwapIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(d, Options{Workers: 1, Seed: 21, SwapIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Graph.Edges) != len(b.Graph.Edges) {
		t.Fatal("edge counts differ across identical runs")
	}
	for i := range a.Graph.Edges {
		if a.Graph.Edges[i] != b.Graph.Edges[i] {
			t.Fatalf("same (seed,workers=1) diverged at edge %d", i)
		}
	}
	// Parallel runs still draw identical *pre-swap* graphs: edge
	// generation is scheduling-independent.
	pa, err := generate(d, Options{Workers: 4, Seed: 21, SwapIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := generate(d, Options{Workers: 4, Seed: 21, SwapIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !pa.Graph.EqualAsSets(pb.Graph) {
		t.Error("edge-skipping output differs across identical parallel runs")
	}
}

func TestPhaseTimesTotal(t *testing.T) {
	p := PhaseTimes{Probabilities: 1, EdgeGeneration: 2, Swapping: 4}
	if p.Total() != 7 {
		t.Errorf("Total = %d", p.Total())
	}
}
