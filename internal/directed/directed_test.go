package directed

import (
	"math"
	"testing"
	"testing/quick"

	"nullgraph/internal/rng"
)

// cycleDigraph returns a directed n-cycle: simple, 1-regular in and out.
func cycleDigraph(n int) *ArcList {
	arcs := make([]Arc, n)
	for i := 0; i < n; i++ {
		arcs[i] = Arc{From: int32(i), To: int32((i + 1) % n)}
	}
	return NewArcList(arcs, n)
}

// randomJoint builds a realizable joint distribution by generating a
// random simple digraph and reading its degrees back.
func randomJoint(t testing.TB, n int, arcsPerVertex int, seed uint64) *JointDistribution {
	t.Helper()
	src := rng.New(seed)
	seen := map[uint64]struct{}{}
	var arcs []Arc
	for len(arcs) < n*arcsPerVertex {
		a := Arc{From: int32(src.Intn(n)), To: int32(src.Intn(n))}
		if a.IsLoop() {
			continue
		}
		if _, dup := seen[a.Key()]; dup {
			continue
		}
		seen[a.Key()] = struct{}{}
		arcs = append(arcs, a)
	}
	return OfArcList(NewArcList(arcs, n), 1)
}

func TestKleitmanWangRealizesExactly(t *testing.T) {
	cases := []*JointDistribution{
		FromJointDegrees([]int64{1, 0}, []int64{0, 1}),
		FromJointDegrees([]int64{1, 1, 1}, []int64{1, 1, 1}),
		FromJointDegrees([]int64{2, 2, 2}, []int64{2, 2, 2}),
		FromJointDegrees([]int64{2, 1, 0}, []int64{0, 1, 2}),
		randomJoint(t, 200, 5, 7),
	}
	for i, d := range cases {
		al, err := KleitmanWang(d)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("case %d: not simple: %+v", i, rep)
		}
		got := OfArcList(al, 1)
		if len(got.Classes) != len(d.Classes) {
			t.Fatalf("case %d: class count %d vs %d", i, len(got.Classes), len(d.Classes))
		}
		for c := range d.Classes {
			if got.Classes[c] != d.Classes[c] {
				t.Fatalf("case %d class %d: %+v vs %+v", i, c, got.Classes[c], d.Classes[c])
			}
		}
	}
}

func TestKleitmanWangRejectsNonRealizable(t *testing.T) {
	bad := []*JointDistribution{
		FromJointDegrees([]int64{2, 0}, []int64{0, 2}),
		FromJointDegrees([]int64{1, 0}, []int64{1, 0}),
		FromJointDegrees([]int64{2, 0}, []int64{0, 1}),
	}
	for i, d := range bad {
		if _, err := KleitmanWang(d); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestKleitmanWangMatchesIsRealizableProperty(t *testing.T) {
	f := func(rawOut, rawIn []uint8) bool {
		n := len(rawOut)
		if n == 0 || n > 10 {
			return true
		}
		if len(rawIn) < n {
			return true
		}
		out := make([]int64, n)
		in := make([]int64, n)
		var so, si int64
		for i := 0; i < n; i++ {
			out[i] = int64(rawOut[i]) % int64(n)
			in[i] = int64(rawIn[i]) % int64(n)
			so += out[i]
			si += in[i]
		}
		if so != si {
			return true // construction requires balance; skip
		}
		d := FromJointDegrees(out, in)
		_, err := KleitmanWang(d)
		return (err == nil) == d.IsRealizable()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestSwapArcsPreservesInvariants(t *testing.T) {
	for _, workers := range []int{1, 4} {
		al := cycleDigraph(500)
		outBefore, inBefore := al.Degrees(1)
		res := shuffle(t, al, Options{SwapIterations: 8, Workers: workers, Seed: 5})
		outAfter, inAfter := al.Degrees(1)
		for v := range outBefore {
			if outBefore[v] != outAfter[v] || inBefore[v] != inAfter[v] {
				t.Fatalf("workers=%d: degrees changed at %d", workers, v)
			}
		}
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("workers=%d: not simple: %+v", workers, rep)
		}
		if res.Swaps.TotalSuccesses == 0 {
			t.Errorf("workers=%d: no swaps on a 500-cycle", workers)
		}
	}
}

func TestSwapArcsChangesGraph(t *testing.T) {
	al := cycleDigraph(1000)
	orig := al.Clone()
	shuffle(t, al, Options{SwapIterations: 5, Workers: 4, Seed: 3})
	if al.EqualAsSets(orig) {
		t.Error("digraph unchanged after swapping")
	}
}

func TestSwapArcsDeterministicSingleWorker(t *testing.T) {
	a, b := cycleDigraph(800), cycleDigraph(800)
	shuffle(t, a, Options{SwapIterations: 4, Workers: 1, Seed: 9})
	shuffle(t, b, Options{SwapIterations: 4, Workers: 1, Seed: 9})
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			t.Fatalf("same (seed, workers=1) diverged at %d", i)
		}
	}
}

func TestSwapArcsUntilMixed(t *testing.T) {
	al := cycleDigraph(256)
	res := shuffle(t, al, Options{Workers: 2, Seed: 11, MixUntilSwapped: true})
	if !res.Mixed {
		t.Fatalf("did not mix in %d iterations", len(res.Swaps.PerIteration))
	}
}

func TestSwapArcsSimplifiesMultiArcs(t *testing.T) {
	var arcs []Arc
	for i := 0; i < 30; i++ {
		arcs = append(arcs, Arc{From: 0, To: 1})
	}
	for i := int32(2); i < 200; i += 2 {
		arcs = append(arcs, Arc{From: i, To: i + 1})
	}
	al := NewArcList(arcs, 200)
	shuffle(t, al, Options{SwapIterations: 60, Workers: 4, Seed: 1})
	if rep := al.CheckSimplicity(); !rep.IsSimple() {
		t.Errorf("multi-arcs survive after 60 iterations: %+v", rep)
	}
}

func TestGenerateProbabilitiesRegular(t *testing.T) {
	// 1000 vertices, out=in=5 for all: exact solution expected.
	out := make([]int64, 1000)
	in := make([]int64, 1000)
	for i := range out {
		out[i], in[i] = 5, 5
	}
	d := FromJointDegrees(out, in)
	m := GenerateProbabilities(d, 2)
	or, ir := RowResiduals(d, m)
	if math.Abs(or[0]) > 1e-6 || math.Abs(ir[0]) > 1e-6 {
		t.Errorf("regular residuals = %v / %v", or[0], ir[0])
	}
	if exp := ExpectedArcs(d, m); math.Abs(exp-5000) > 1e-6 {
		t.Errorf("ExpectedArcs = %v, want 5000", exp)
	}
}

func TestGenerateProbabilitiesBipartiteExact(t *testing.T) {
	// Sources and sinks: 100 vertices out=3/in=0, 100 vertices out=0/in=3.
	out := make([]int64, 200)
	in := make([]int64, 200)
	for i := 0; i < 100; i++ {
		out[i] = 3
		in[100+i] = 3
	}
	d := FromJointDegrees(out, in)
	m := GenerateProbabilities(d, 1)
	or, ir := RowResiduals(d, m)
	for c := range or {
		if math.Abs(or[c]) > 1e-6 || math.Abs(ir[c]) > 1e-6 {
			t.Errorf("class %d residuals %v / %v", c, or[c], ir[c])
		}
	}
}

func TestGenerateProbabilitiesSkewed(t *testing.T) {
	d := randomJoint(t, 2000, 4, 3)
	m := GenerateProbabilities(d, 4)
	for i := 0; i < m.Dim(); i++ {
		for j := 0; j < m.Dim(); j++ {
			if v := m.At(i, j); v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("P(%d,%d) = %v", i, j, v)
			}
		}
	}
	exp := ExpectedArcs(d, m)
	target := float64(d.NumArcs())
	if math.Abs(exp-target) > 0.05*target {
		t.Errorf("expected arcs %v vs target %v", exp, target)
	}
}

func TestChungLuProbabilitiesDirected(t *testing.T) {
	d := FromJointDegrees([]int64{1, 1}, []int64{1, 1})
	m := ChungLuProbabilities(d) // single class (1,1), arcs=2
	if got := m.At(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P = %v, want 0.5", got)
	}
}

func TestGenerateArcsSimpleAndSized(t *testing.T) {
	d := randomJoint(t, 3000, 5, 17)
	m := GenerateProbabilities(d, 2)
	want := ExpectedArcs(d, m)
	var total float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		al, err := GenerateArcs(d, m, SkipOptions{Workers: 4, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if rep := al.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("not simple: %+v", rep)
		}
		total += float64(al.NumArcs())
	}
	mean := total / trials
	tol := 5 * math.Sqrt(want) / math.Sqrt(trials)
	if math.Abs(mean-want) > tol {
		t.Errorf("mean arcs %v, want %v ± %v", mean, want, tol)
	}
}

func TestGenerateArcsDeterministicAcrossWorkers(t *testing.T) {
	d := randomJoint(t, 1000, 4, 23)
	m := GenerateProbabilities(d, 1)
	a, err := GenerateArcs(d, m, SkipOptions{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateArcs(d, m, SkipOptions{Workers: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arcs) != len(b.Arcs) {
		t.Fatalf("arc counts differ: %d vs %d", len(a.Arcs), len(b.Arcs))
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			t.Fatalf("arc %d differs across worker counts", i)
		}
	}
}

func TestGenerateArcsDiagonalExcludesLoops(t *testing.T) {
	// One class, P=1: complete digraph without loops.
	out := []int64{4, 4, 4, 4, 4}
	in := []int64{4, 4, 4, 4, 4}
	d := FromJointDegrees(out, in)
	m := NewProbMatrix(1)
	m.Set(0, 0, 1)
	al, err := GenerateArcs(d, m, SkipOptions{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if al.NumArcs() != 20 {
		t.Errorf("arcs = %d, want 20 (complete digraph on 5)", al.NumArcs())
	}
	for _, a := range al.Arcs {
		if a.IsLoop() {
			t.Fatalf("loop emitted: %v", a)
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	d := randomJoint(t, 4000, 5, 31)
	res, err := Generate(d, Options{Workers: 4, Seed: 7, SwapIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("pipeline output not simple: %+v", rep)
	}
	// Arc count within a few percent.
	got := float64(res.Graph.NumArcs())
	target := float64(d.NumArcs())
	if math.Abs(got-target) > 0.05*target {
		t.Errorf("arcs %v vs target %v", got, target)
	}
	if len(res.Swaps.PerIteration) != 6 {
		t.Errorf("swap iterations = %d", len(res.Swaps.PerIteration))
	}
}

func TestPipelineRejectsUnbalanced(t *testing.T) {
	d := &JointDistribution{Classes: []JointClass{{Out: 2, In: 1, Count: 3}}}
	if _, err := Generate(d, Options{}); err == nil {
		t.Error("unbalanced joint distribution accepted")
	}
}

func TestShuffleDirectedPreservesJointDegrees(t *testing.T) {
	al := cycleDigraph(400)
	before := OfArcList(al, 1)
	res, err := Shuffle(al, Options{Workers: 2, Seed: 3, MixUntilSwapped: true})
	if err != nil {
		t.Fatal(err)
	}
	after := OfArcList(al, 1)
	if len(before.Classes) != len(after.Classes) {
		t.Fatal("joint distribution changed")
	}
	for i := range before.Classes {
		if before.Classes[i] != after.Classes[i] {
			t.Fatal("joint distribution changed")
		}
	}
	if !res.Mixed {
		t.Error("cycle did not mix")
	}
}

func TestSwapUniformityDirectedMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// 3 vertices each out=in=1: exactly two simple digraphs exist — the
	// two directed 3-cycles. Long swap runs must visit both equally.
	counts := map[uint64]int{}
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		al := cycleDigraph(3)
		shuffle(t, al, Options{SwapIterations: 20, Workers: 1, Seed: rng.Mix64(uint64(trial) + 1)})
		var sig uint64
		for _, a := range al.Arcs {
			sig ^= rng.Mix64(a.Key())
		}
		counts[sig]++
	}
	if len(counts) != 2 {
		t.Fatalf("reached %d states, want 2", len(counts))
	}
	for sig, c := range counts {
		want := float64(trials) / 2
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want/2) {
			t.Errorf("state %x: %d of %d", sig, c, trials)
		}
	}
}

func BenchmarkDirectedPipeline(b *testing.B) {
	d := randomJoint(b, 50000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Generate(d, Options{Seed: uint64(i), SwapIterations: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Graph.NumArcs()) * 8)
	}
}
