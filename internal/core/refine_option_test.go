package core

import (
	"math"
	"testing"

	"nullgraph/internal/degseq"
	"nullgraph/internal/probgen"
)

// TestRefinePassesOptionImprovesResiduals checks the pipeline-level
// wiring of probgen.Refine: with RefinePasses set, the matrix used for
// generation must have smaller residuals on a skewed instance.
func TestRefinePassesOptionImprovesResiduals(t *testing.T) {
	d, err := degseq.SamplePowerLaw(degseq.PowerLawConfig{
		NumVertices: 4000, MinDegree: 1, MaxDegree: 900, Gamma: 2.0, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := generate(d, Options{Workers: 2, Seed: 1, SwapIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := generate(d, Options{Workers: 2, Seed: 1, SwapIterations: 0, RefinePasses: 12})
	if err != nil {
		t.Fatal(err)
	}
	abs := func(rs []float64) float64 {
		var s float64
		for _, r := range rs {
			s += math.Abs(r)
		}
		return s
	}
	rPlain := abs(probgen.RowResiduals(d, plain.Probabilities))
	rRefined := abs(probgen.RowResiduals(d, refined.Probabilities))
	if rRefined >= rPlain {
		t.Errorf("RefinePasses did not improve residuals: %v vs %v", rRefined, rPlain)
	}
	if rep := refined.Graph.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("refined pipeline output not simple: %+v", rep)
	}
}
