package directed

import (
	"fmt"
	"sort"
	"testing"
)

// shuffle mixes al in place through the pipeline's Shuffle entry point,
// failing the test on error.
func shuffle(t testing.TB, al *ArcList, opt Options) *Result {
	t.Helper()
	res, err := Shuffle(al, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func arcSignature(al *ArcList) string {
	keys := make([]uint64, len(al.Arcs))
	for i, a := range al.Arcs {
		keys[i] = a.Key()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return fmt.Sprint(keys)
}

// TestSwapArcsSimplicityAcrossSeedsAndWorkers: every seeded run, at any
// worker count, must leave the arc list simple (no loops, no duplicate
// arcs) with the joint degrees intact.
func TestSwapArcsSimplicityAcrossSeedsAndWorkers(t *testing.T) {
	d := jointOf(t,
		JointClass{Out: 2, In: 1, Count: 6},
		JointClass{Out: 1, In: 2, Count: 6},
	)
	start, err := KleitmanWang(d)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn := start.Degrees(1)
	for _, workers := range []int{1, 2, 4} {
		for seed := uint64(0); seed < 8; seed++ {
			al := start.Clone()
			shuffle(t, al, Options{SwapIterations: 12, Workers: workers, Seed: seed})
			if rep := al.CheckSimplicity(); !rep.IsSimple() {
				t.Fatalf("workers=%d seed=%d: not simple: %+v", workers, seed, rep)
			}
			out, in := al.Degrees(1)
			for v := range out {
				if out[v] != wantOut[v] || in[v] != wantIn[v] {
					t.Fatalf("workers=%d seed=%d: joint degrees changed at vertex %d", workers, seed, v)
				}
			}
		}
	}
}

// TestSwapArcsErgodicOnDerangements is the regression for the lazy
// pair coin. The 4-vertex out=in=1 space has 9 states (derangements of
// 4). Without the per-pair lazy coin the sweep applies every legal
// exchange of a pairing in lockstep, composite moves only, and the
// space decomposes into four communicating classes ({start, inverse}
// for each 4-cycle, involutions among themselves) — short seeded runs
// then visit at most a fraction of the states. With the coin the chain
// is ergodic and a modest sweep of seeds must reach all 9.
func TestSwapArcsErgodicOnDerangements(t *testing.T) {
	d := jointOf(t, JointClass{Out: 1, In: 1, Count: 4})
	start, err := KleitmanWang(d)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		al := start.Clone()
		shuffle(t, al, Options{SwapIterations: 30, Workers: 1, Seed: seed})
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("seed %d: not simple: %+v", seed, rep)
		}
		seen[arcSignature(al)] = true
	}
	if len(seen) != 9 {
		t.Fatalf("reached %d of 9 derangement states from 40 seeds; chain is not mixing across communicating classes", len(seen))
	}
}

// TestSwapArcsLazyCoinStreamsIndependent: runs with different seeds
// must not all land on the same state (the coin streams and pairing
// permutations must actually depend on the seed).
func TestSwapArcsLazyCoinStreamsIndependent(t *testing.T) {
	d := jointOf(t, JointClass{Out: 1, In: 1, Count: 4})
	start, err := KleitmanWang(d)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]int{}
	for seed := uint64(100); seed < 110; seed++ {
		al := start.Clone()
		shuffle(t, al, Options{SwapIterations: 10, Workers: 1, Seed: seed})
		states[arcSignature(al)]++
	}
	if len(states) < 2 {
		t.Fatalf("10 distinct seeds produced %d distinct states", len(states))
	}
}
