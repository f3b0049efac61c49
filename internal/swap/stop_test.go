package swap

import (
	"testing"

	"nullgraph/internal/graph"
	"nullgraph/internal/obs"
	"nullgraph/internal/par"
)

// TestRunStopPreTripped: a tripped flag ends the run before the first
// iteration with Stopped set and the edge list untouched.
func TestRunStopPreTripped(t *testing.T) {
	el := ring(512)
	orig := ring(512)
	stop := &par.Stop{}
	stop.Set()
	res := Run(el, Options{Iterations: 10, Workers: 2, Seed: 1, Stop: stop})
	if !res.Stopped {
		t.Fatal("pre-tripped stop: Result.Stopped is false")
	}
	if len(res.PerIteration) != 0 {
		t.Fatalf("pre-tripped stop ran %d iterations", len(res.PerIteration))
	}
	for i := range orig.Edges {
		if el.Edges[i] != orig.Edges[i] {
			t.Fatalf("pre-tripped stop mutated edge %d", i)
		}
	}
}

// TestRunStopUntrippedBitIdentical: at Workers=1 the one loop body per
// phase must give the plain run's chain in every stub cell, whether a
// never-tripped stop is polled, a recorder is attached, or both.
func TestRunStopUntrippedBitIdentical(t *testing.T) {
	for _, space := range []graph.Space{graph.SimpleStub, graph.LoopyStub, graph.MultigraphStub} {
		plain := ring(2048)
		Run(plain, Options{Space: space, Iterations: 6, Workers: 1, Seed: 9})
		want := edgeHash(plain)
		for _, stop := range []*par.Stop{nil, {}} {
			for _, recorded := range []bool{false, true} {
				opt := Options{Space: space, Iterations: 6, Workers: 1, Seed: 9, Stop: stop}
				if recorded {
					opt.Recorder = obs.NewRecorder()
				}
				el := ring(2048)
				if res := Run(el, opt); res.Stopped {
					t.Fatalf("%v stop=%v recorder=%v: untripped run reported Stopped", space, stop != nil, recorded)
				}
				if got := edgeHash(el); got != want {
					t.Errorf("%v stop=%v recorder=%v: edge hash %#x, plain run %#x", space, stop != nil, recorded, got, want)
				}
			}
		}
	}
}

// TestStepAfterMidIterationStop: an interrupted iteration must restore
// the hash table so the next Step behaves like a clean one. The
// mid-iteration path is exercised deterministically by tripping the
// flag between Steps (phase boundaries are a superset of the in-loop
// polls' behavior: both leave the table cleared). With a recorder
// attached the same bodies poll, and the stopped iteration must leave
// no record.
func TestStepAfterMidIterationStop(t *testing.T) {
	for _, rec := range []*obs.Recorder{nil, obs.NewRecorder()} {
		el := ring(1024)
		degrees := degreesOf(el)
		eng := NewEngine(el, Options{Workers: 2, Seed: 4, Recorder: rec})
		eng.Step()

		before := edgeHash(el)
		stop := &par.Stop{}
		stop.Set()
		eng.SetStop(stop)
		// Each phase body polls before its first block, recorder or not.
		eng.registerBody(0, par.Range{Begin: 0, End: len(el.Edges)})
		eng.sweepBody(0, par.Range{Begin: 0, End: len(el.Edges) / 2})
		if n := eng.writers[0].Inserts(); n != 0 || eng.successes[0].V != 0 {
			t.Fatalf("recorder=%v: tripped bodies registered %d keys and committed %d swaps", rec != nil, n, eng.successes[0].V)
		}
		if stats, stopped := eng.step(); !stopped || stats != (IterStats{}) {
			t.Fatalf("recorder=%v: tripped step: stopped=%v stats=%+v", rec != nil, stopped, stats)
		}
		if edgeHash(el) != before {
			t.Fatalf("recorder=%v: tripped step mutated the edge list", rec != nil)
		}
		if n := eng.table.Len(); n != 0 {
			t.Fatalf("recorder=%v: tripped step left %d keys in the edge table", rec != nil, n)
		}

		// Clear the flag and keep going: invariants must hold.
		eng.SetStop(nil)
		for i := 0; i < 4; i++ {
			eng.Step()
		}
		eng.Close()
		if !equalInt64(degrees, degreesOf(el)) {
			t.Fatal("degree sequence broken after an interrupted iteration")
		}
		if rep := el.CheckSimplicity(); !rep.IsSimple() {
			t.Fatalf("graph not simple after an interrupted iteration: %+v", rep)
		}
		if rec == nil {
			continue
		}
		rep := rec.Report()
		if len(rep.Iterations) != 5 {
			t.Fatalf("report holds %d iterations, want the 5 completed ones", len(rep.Iterations))
		}
		for it, r := range rep.Iterations {
			if got := r.Successes + r.RejectSelfLoop + r.RejectDuplicate + r.RejectPartnerDuplicate; got != r.Attempts {
				t.Errorf("iteration %d: split sums to %d, want %d attempts", it, got, r.Attempts)
			}
		}
	}
}
