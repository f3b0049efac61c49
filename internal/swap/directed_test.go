package swap

import (
	"testing"
	"time"

	"nullgraph/internal/graph"
	"nullgraph/internal/par"
)

// dicycles returns the out/in cover of k disjoint directed n-cycles,
// the arcs of each cycle stored consecutively in cycle order.
func dicycles(k, n int) *graph.EdgeList {
	edges := make([]graph.Edge, 0, k*n)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			edges = append(edges, ArcEdge(int32(c*n+i), int32(c*n+(i+1)%n)))
		}
	}
	return &graph.EdgeList{Edges: edges, NumVertices: k * n}
}

// dicycle returns the out/in cover of the directed n-cycle i→i+1.
func dicycle(n int) *graph.EdgeList { return dicycles(1, n) }

// arcDegrees returns the out- and in-degree of every vertex of a cover.
func arcDegrees(el *graph.EdgeList) (out, in []int64) {
	out = make([]int64, el.NumVertices)
	in = make([]int64, el.NumVertices)
	for _, e := range el.Edges {
		u, v := EdgeArc(e)
		out[u]++
		in[v]++
	}
	return out, in
}

// checkSimpleDigraph fails unless the cover keeps the joint degrees
// (wantOut, wantIn) with no self-loop and no duplicate arc.
func checkSimpleDigraph(t *testing.T, el *graph.EdgeList, wantOut, wantIn []int64) {
	t.Helper()
	out, in := arcDegrees(el)
	if !equalInt64(out, wantOut) || !equalInt64(in, wantIn) {
		t.Fatal("out/in degrees changed")
	}
	seen := make(map[uint64]bool, len(el.Edges))
	for _, e := range el.Edges {
		if u, v := EdgeArc(e); u == v {
			t.Fatalf("self-loop %d->%d", u, v)
		}
		if seen[e.Key()] {
			t.Fatalf("duplicate arc %v", e)
		}
		seen[e.Key()] = true
	}
}

// TestArcEdgeEncoding: the cover edge decodes back to its arc in either
// stored orientation, and its key tells u→v from v→u.
func TestArcEdgeEncoding(t *testing.T) {
	for _, a := range [][2]int32{{0, 1}, {1, 0}, {0, 0}, {7, 1 << 30}, {1<<31 - 1, 0}} {
		e := ArcEdge(a[0], a[1])
		for _, stored := range []graph.Edge{e, {U: e.V, V: e.U}} {
			if u, v := EdgeArc(stored); u != a[0] || v != a[1] {
				t.Errorf("EdgeArc(%v) = %d->%d, want %d->%d", stored, u, v, a[0], a[1])
			}
			if stored.Key() != e.Key() {
				t.Errorf("%v and %v key differently", stored, e)
			}
		}
		if a[0] != a[1] && e.Key() == ArcEdge(a[1], a[0]).Key() {
			t.Errorf("%d->%d and its reverse share a key", a[0], a[1])
		}
	}
}

// TestDirectedDeterministicSingleWorker: at Workers=1 the directed chain
// is a pure function of the seed.
func TestDirectedDeterministicSingleWorker(t *testing.T) {
	a, b := dicycle(800), dicycle(800)
	for _, el := range []*graph.EdgeList{a, b} {
		eng := NewDirectedEngine(el, Options{Workers: 1, Seed: 9, TrackSwapped: true})
		Drive(eng, Budget(4))
		eng.Close()
	}
	if edgeHash(a) != edgeHash(b) {
		t.Fatal("same (seed, workers=1) directed runs diverged")
	}
	if edgeHash(a) == edgeHash(dicycle(800)) {
		t.Fatal("directed chain left the cycle unchanged")
	}
}

// TestDirectedStepDoesNotAllocate: like the undirected Step, a warm
// directed Step — pair sweep and triangle phase on the pooled workers —
// touches no heap.
func TestDirectedStepDoesNotAllocate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng := NewDirectedEngine(dicycle(1<<13), Options{Workers: workers, Seed: 1, TrackSwapped: true})
		eng.Step()
		if allocs := testing.AllocsPerRun(5, func() { eng.Step() }); allocs != 0 {
			t.Errorf("workers=%d: directed Step allocated %v objects per call after warm-up, want 0", workers, allocs)
		}
		eng.Close()
	}
}

// TestDirectedStopMidIteration: the directed phases poll once per
// block, so a stop lands inside an iteration; whatever committed before
// it keeps every out/in degree and simplicity, and the table is left
// clean for the next Step. The start is 2^14 disjoint directed
// triangles stored in order, so an unpolled triangle phase would commit.
func TestDirectedStopMidIteration(t *testing.T) {
	el := dicycles(1<<14, 3)
	wantOut, wantIn := arcDegrees(el)
	eng := NewDirectedEngine(el, Options{Workers: 2, Seed: 3})
	defer eng.Close()

	// Each committing body polls before its first block.
	tripped := &par.Stop{}
	tripped.Set()
	eng.SetStop(tripped)
	eng.sweepBody(0, par.Range{Begin: 0, End: len(el.Edges) / 2})
	eng.triangleBody(1, par.Range{Begin: 0, End: len(el.Edges) / 3})
	if eng.successes[0].V != 0 || eng.successes[1].V != 0 || eng.writers[0].Inserts() != 0 || eng.writers[1].Inserts() != 0 {
		t.Fatal("tripped directed bodies probed or committed")
	}

	stop := &par.Stop{}
	eng.SetStop(stop)
	timer := time.AfterFunc(5*time.Millisecond, stop.Set)
	defer timer.Stop()
	res, _ := Drive(eng, Budget(1<<20))
	if !res.Stopped {
		t.Fatal("run was not stopped")
	}
	if n := eng.table.Len(); n != 0 {
		t.Fatalf("stopped run left %d keys in the edge table", n)
	}
	for w, wtr := range eng.writers {
		if wtr.Inserts() != 0 {
			t.Fatalf("writer %d kept %d inserts after the stop", w, wtr.Inserts())
		}
	}
	checkSimpleDigraph(t, el, wantOut, wantIn)

	eng.SetStop(nil)
	for i := 0; i < 3; i++ {
		eng.Step()
	}
	checkSimpleDigraph(t, el, wantOut, wantIn)
}

func BenchmarkDirectedSwapIteration(b *testing.B) {
	el := dicycle(1 << 17)
	eng := NewDirectedEngine(el, Options{Workers: 0, Seed: 1})
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.SetBytes(int64(len(el.Edges)) * 8)
}
