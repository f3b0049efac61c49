package swap

import (
	"testing"

	"nullgraph/internal/graph"
)

// loopyStart is a legal loopy-space state: a ring plus self-loops on a
// few vertices (degrees stay even, no multi-edges).
func loopyStart(n int) *graph.EdgeList {
	el := ring(n)
	for v := 0; v < 3; v++ {
		el.Edges = append(el.Edges, graph.Edge{U: int32(v), V: int32(v)})
	}
	return graph.NewEdgeList(el.Edges, n)
}

// multiStart adds parallel edges and a doubled loop on top of loopyStart.
func multiStart(n int) *graph.EdgeList {
	el := loopyStart(n)
	el.Edges = append(el.Edges,
		graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 1},
		graph.Edge{U: 5, V: 5})
	return graph.NewEdgeList(el.Edges, n)
}

// startFor returns a legal, defect-bearing (where allowed) start state
// for the space.
func startFor(space graph.Space, n int) *graph.EdgeList {
	switch {
	case space.AllowsMulti():
		return multiStart(n)
	case space.AllowsLoops():
		return loopyStart(n)
	default:
		return ring(n)
	}
}

// TestSpaceInvariantMatrix runs every cell of the matrix across seeds
// and worker counts and checks the chain's invariants: degree sequence
// and edge count preserved, and the state stays inside the cell.
func TestSpaceInvariantMatrix(t *testing.T) {
	for _, space := range graph.Spaces() {
		for _, workers := range []int{1, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				el := startFor(space, 200)
				degBefore := degreesOf(el)
				mBefore := len(el.Edges)
				res := Run(el, Options{Space: space, Iterations: 6, Workers: workers, Seed: seed})
				if len(el.Edges) != mBefore {
					t.Fatalf("%s w=%d seed=%d: edge count %d -> %d", space, workers, seed, mBefore, len(el.Edges))
				}
				if !equalInt64(degreesOf(el), degBefore) {
					t.Errorf("%s w=%d seed=%d: degree sequence changed", space, workers, seed)
				}
				if !el.SatisfiesSpace(space) {
					t.Errorf("%s w=%d seed=%d: output left the space: %v", space, workers, seed,
						graph.ValidateInSpace(el, space))
				}
				if res.TotalSuccesses == 0 {
					t.Errorf("%s w=%d seed=%d: chain never moved", space, workers, seed)
				}
			}
		}
	}
}

// TestSimpleVertexMatchesSimpleStub: the two simple cells are one
// regime — identical chains, bit-identical serial output.
func TestSimpleVertexMatchesSimpleStub(t *testing.T) {
	a, b := ring(300), ring(300)
	Run(a, Options{Space: graph.SimpleStub, Iterations: 4, Workers: 1, Seed: 7})
	Run(b, Options{Space: graph.SimpleVertex, Iterations: 4, Workers: 1, Seed: 7})
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

// TestMultigraphStubAcceptsAll: the configuration-model chain has no
// rejection — every proposal commits.
func TestMultigraphStubAcceptsAll(t *testing.T) {
	el := multiStart(100)
	res := Run(el, Options{Space: graph.MultigraphStub, Iterations: 3, Workers: 2, Seed: 5})
	for it, s := range res.PerIteration {
		if s.Successes != s.Attempts {
			t.Fatalf("iteration %d: %d successes of %d attempts; accept-all cell must commit every proposal",
				it, s.Successes, s.Attempts)
		}
	}
}

// TestVertexMHWorkersIrrelevant: the vertex-labeled cells are serial,
// so the Workers setting must not change the output stream.
func TestVertexMHWorkersIrrelevant(t *testing.T) {
	for _, space := range []graph.Space{graph.LoopyVertex, graph.MultigraphVertex} {
		a := startFor(space, 150)
		b := startFor(space, 150)
		ra := Run(a, Options{Space: space, Iterations: 5, Workers: 1, Seed: 13})
		rb := Run(b, Options{Space: space, Iterations: 5, Workers: 8, Seed: 13})
		if ra.TotalSuccesses != rb.TotalSuccesses {
			t.Fatalf("%s: success counts differ across Workers: %d vs %d", space, ra.TotalSuccesses, rb.TotalSuccesses)
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("%s: edge %d differs across Workers: %v vs %v", space, i, a.Edges[i], b.Edges[i])
			}
		}
	}
}

// TestVertexMHResetReuse: Reset + SetSeed on a vertex-labeled engine
// must rebuild the multiset, matching a fresh engine bit-for-bit.
func TestVertexMHResetReuse(t *testing.T) {
	eng := NewEngine(loopyStart(120), Options{Space: graph.LoopyVertex, Iterations: 3, Seed: 1})
	defer eng.Close()
	Drive(eng, Budget(3))

	reused := loopyStart(120)
	eng.Reset(reused)
	eng.SetSeed(77)
	Drive(eng, Budget(3))

	fresh := loopyStart(120)
	Run(fresh, Options{Space: graph.LoopyVertex, Iterations: 3, Seed: 77})
	for i := range fresh.Edges {
		if reused.Edges[i] != fresh.Edges[i] {
			t.Fatalf("edge %d differs between reused and fresh engines: %v vs %v",
				i, reused.Edges[i], fresh.Edges[i])
		}
	}
}

// TestLoopyStubPreservesLoopLegality: a loopy-stub chain must be able
// to both create and destroy loops (otherwise it is not irreducible on
// the loopy space). Run until both directions have been observed.
func TestLoopyStubLoopTurnover(t *testing.T) {
	// Creation: starting from a simple ring, the chain must reach a
	// state with a loop (loops are legal states of the cell).
	created := false
	el := ring(60)
	eng := NewEngine(el, Options{Space: graph.LoopyStub, Iterations: 1, Workers: 1, Seed: 3})
	defer eng.Close()
	for it := 0; it < 200 && !created; it++ {
		eng.Step()
		created = graph.MultisetOf(el).Loops() > 0
	}
	if !created {
		t.Fatal("chain never created a loop from a simple start: not mixing over the loopy space")
	}

	// Destruction: starting with loops, the chain must shed one.
	destroyed := false
	el2 := loopyStart(60)
	eng2 := NewEngine(el2, Options{Space: graph.LoopyStub, Iterations: 1, Workers: 1, Seed: 4})
	defer eng2.Close()
	for it := 0; it < 200 && !destroyed; it++ {
		eng2.Step()
		destroyed = graph.MultisetOf(el2).Loops() < 3
	}
	if !destroyed {
		t.Fatal("chain never destroyed a loop: not mixing over the loopy space")
	}
}

// TestValidateSpaceOption: Validate rejects an out-of-range space.
func TestValidateSpaceOption(t *testing.T) {
	if err := (Options{Space: graph.Space(99)}).Validate(); err == nil {
		t.Fatal("Validate accepted an invalid space")
	}
	for _, s := range graph.Spaces() {
		if err := (Options{Space: s}).Validate(); err != nil {
			t.Fatalf("Validate rejected %s: %v", s, err)
		}
	}
}
