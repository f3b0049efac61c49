// Per-space swap acceptance policies.
//
// The engine samples one cell of the Dutta–Fosdick–Clauset space
// matrix (graph.Space, arXiv:2105.12120). The cells split into two
// mechanically different regimes:
//
//   - Stub-labeled cells (and simple graphs, where stub- and
//     vertex-labeled uniformity coincide) keep the paper's parallel
//     kernel: permute, propose adjacent disjoint pairs, accept by a
//     per-space rejection rule. No Metropolis–Hastings correction is
//     needed — in the stub-labeled target each graph is weighted by
//     its number of stub matchings, and the proposal degeneracies of
//     the pair-and-coin move (two coins collapsing onto one outcome
//     exactly when a loop or parallel pair is involved) cancel those
//     weights, so plain rejection of out-of-space proposals is the
//     correct chain: simple rejects loops and duplicates, loopy-stub
//     rejects duplicates only, multigraph-stub accepts everything.
//
//   - Vertex-labeled loopy/multigraph cells target the uniform
//     distribution over graphs, which the pair-and-coin proposal does
//     NOT sample unadjusted (it over-proposes moves out of states
//     with parallel edges and loops). These run a serial exact
//     Metropolis–Hastings sweep with the acceptance ratio
//
//     α = min(1, (N_b · c_b) / (N_f · c_f))
//
//     where N_f is the number of edge-instance pairs realizing the
//     forward proposal (w_e·w_f for distinct keys, w(w−1)/2 for two
//     instances of one key), N_b the same count for the reverse move
//     evaluated in the proposed state, and c_f/c_b ∈ {1, 2} count the
//     coin degeneracy — 2 exactly when both coin pairings produce the
//     same outcome. For a non-identity move the added key pair is
//     disjoint from the removed key pair (sharing one key forces
//     sharing both), so the reverse-move counts are the current
//     multiplicities plus the instances the move itself adds, and the
//     move's key quadruple is unique — making the per-move ratio the
//     exact proposal ratio. Multiplicities come from a graph.Multiset,
//     so this path is serial and map-backed; it is intentionally NOT
//     //nullgraph:hotpath (the parallel stub policies below are).
//
// The directed chain is one more parallel policy, over the out/in cover
// of a digraph (the bipartite graph of tail-copies and head-copies in
// which a vertex's own tail–head pair is forbidden; see Greenhill,
// arXiv:2201.04888, on switch chains in this representation). Arc u→v
// is the cover edge {u, ^v}: tails keep their id, heads are stored
// complemented, so Edge.Key keys u→v and v→u apart and collides exact
// duplicates. Of rewirePair's two pairings of two cover edges exactly
// one joins each tail to a head — the arcs' single legal exchange — so
// rejecting the other is a lazy ½ coin on that exchange. The lazy coin
// is load-bearing: without it every legal exchange of a pairing would
// commit in lockstep, and on the 4-vertex out=in=1 space the chain
// splits into four communicating classes. Pair moves alone still do not
// connect the simple-digraph space (the two orientations of a directed
// 3-cycle have no pair move between them), so directed engines also run
// reverseTriangle, the classic second move of directed switch chains
// (Rao et al.; Erdős–Miklós–Toroczkai).
package swap

import (
	"nullgraph/internal/graph"
	"nullgraph/internal/hashtable"
	"nullgraph/internal/obs"
	"nullgraph/internal/rng"
)

// verdict is a stub-cell policy's decision on one proposal: accepted,
// or the reason it was rejected — the RunReport's exhaustive split of
// attempts.
type verdict uint8

const (
	accepted verdict = iota
	rejectSelfLoop
	rejectDuplicate
	rejectPartnerDuplicate
	// rejectLazy is the directed policy's lazy coin. It is never
	// recorded: directed engines take no recorder.
	rejectLazy
)

// record files a rejection in the worker's recorder cell.
//
//nullgraph:hotpath
func (v verdict) record(cell *obs.Counters) {
	switch v {
	case rejectSelfLoop:
		cell.RejectSelfLoop++
	case rejectDuplicate:
		cell.RejectDuplicate++
	case rejectPartnerDuplicate:
		cell.RejectPartnerDuplicate++
	}
}

// policy is a stub cell's acceptance rule over the proposal (g, h).
// wtr is the worker's writer on the iteration's edge table (nil for
// table-less cells); cell, when non-nil, receives the probe length of
// every TestAndSet the rule makes.
type policy func(wtr *hashtable.Writer, cell *obs.Counters, g, h graph.Edge) verdict

// probed files one TestAndSet probe length in cell when a recorder is
// attached. Small enough to inline, so the policies and the register
// body keep their plain call depth.
//
//nullgraph:hotpath
func probed(cell *obs.Counters, probes int) {
	if obs.Enabled && cell != nil {
		cell.RecordProbe(probes)
	}
}

// acceptSimple is the paper's simple-space acceptance rule: commit iff
// neither proposed edge is a self-loop and neither is already present
// (TestAndSet registers the probes, suppressing re-proposals this
// iteration — see the package doc for the short-circuit ordering).
//
//nullgraph:hotpath
func acceptSimple(wtr *hashtable.Writer, cell *obs.Counters, g, h graph.Edge) verdict {
	if g.IsLoop() || h.IsLoop() {
		return rejectSelfLoop
	}
	present, probes := wtr.TestAndSetProbed(g.Key())
	probed(cell, probes)
	if present {
		return rejectDuplicate
	}
	present, probes = wtr.TestAndSetProbed(h.Key())
	probed(cell, probes)
	if present {
		// g stays registered: harmless for correctness (it only
		// suppresses re-proposals of g this iteration).
		return rejectPartnerDuplicate
	}
	return accepted
}

// acceptLoopyStub is the loopy-stub rule: loops are legal states, so
// only duplicate creation is rejected. Loop keys pack and probe like
// any other key, and a proposal that would create a duplicated loop
// (g and h the same loop) is caught by the second TestAndSet seeing
// the first's registration.
//
//nullgraph:hotpath
func acceptLoopyStub(wtr *hashtable.Writer, cell *obs.Counters, g, h graph.Edge) verdict {
	present, probes := wtr.TestAndSetProbed(g.Key())
	probed(cell, probes)
	if present {
		return rejectDuplicate
	}
	present, probes = wtr.TestAndSetProbed(h.Key())
	probed(cell, probes)
	if present {
		// As in acceptSimple, g's registration persists harmlessly.
		return rejectPartnerDuplicate
	}
	return accepted
}

// acceptDirected is the directed rule over out/in cover edges: reject
// the pairing that joins two tails (and so two heads), which is the
// lazy coin; reject a tail joined to its own head, a self-loop; else
// probe both new arcs like acceptLoopyStub.
//
//nullgraph:hotpath
func acceptDirected(wtr *hashtable.Writer, cell *obs.Counters, g, h graph.Edge) verdict {
	if g.U^g.V >= 0 {
		return rejectLazy
	}
	if g.U == ^g.V || h.U == ^h.V {
		return rejectSelfLoop
	}
	return acceptLoopyStub(wtr, cell, g, h)
}

// reverseTriangle reverses t's three arcs in place when, in this order,
// they form a directed triangle u→v→w→u on three distinct vertices and
// none of the reversed arcs is in the table; it reports whether it did.
//
//nullgraph:hotpath
func reverseTriangle(wtr *hashtable.Writer, t []graph.Edge) bool {
	au, av := EdgeArc(t[0])
	bu, bv := EdgeArc(t[1])
	cu, cv := EdgeArc(t[2])
	if av != bu || bv != cu || cv != au || au == bu || bu == cu || au == cu {
		return false
	}
	ra, rb, rc := ArcEdge(av, au), ArcEdge(bv, bu), ArcEdge(cv, cu)
	if wtr.TestAndSet(ra.Key()) || wtr.TestAndSet(rb.Key()) || wtr.TestAndSet(rc.Key()) {
		return false
	}
	t[0], t[1], t[2] = ra, rb, rc
	return true
}

// ArcEdge encodes the arc from→to as its out/in cover edge {from, ^to}.
//
//nullgraph:hotpath
func ArcEdge(from, to int32) graph.Edge { return graph.Edge{U: from, V: ^to} }

// EdgeArc decodes a cover edge in either stored orientation (a swap
// may leave the head first) back into its arc from→to. The tail is the
// non-negative endpoint, so max and min pick the two apart without a
// branch: after a few swaps the stored orientation is a coin flip, and
// a branch on it mispredicts half the time.
//
//nullgraph:hotpath
func EdgeArc(e graph.Edge) (from, to int32) {
	return max(e.U, e.V), ^min(e.U, e.V)
}

// acceptAll is the multigraph-stub rule: every proposal is a legal
// state, so the rule never consults the (absent) table.
//
//nullgraph:hotpath
func acceptAll(*hashtable.Writer, *obs.Counters, graph.Edge, graph.Edge) verdict {
	return accepted
}

// sameKeyPair reports multiset equality of the two canonical-key
// pairs {a1, a2} and {b1, b2}.
func sameKeyPair(a1, a2, b1, b2 uint64) bool {
	return (a1 == b1 && a2 == b2) || (a1 == b2 && a2 == b1)
}

// stepVertex runs one serial Metropolis–Hastings sweep for the
// vertex-labeled loopy/multigraph cells: ⌊m/2⌋ proposals, each picking
// a uniform pair of distinct edge positions and a fair coin, accepted
// with the exact ratio derived in the file doc. Serial because the
// acceptance ratio reads live multiplicities — the parallel kernel's
// iteration-frozen hash table cannot answer those — and bit-
// reproducible for any Workers setting as a consequence.
func (eng *Engine) stepVertex() (IterStats, bool) {
	m := len(eng.el.Edges)
	it := eng.iteration
	eng.iteration++
	if m < 2 {
		return IterStats{}, eng.stop.Stopped()
	}
	if eng.stop.Stopped() {
		return IterStats{}, true
	}
	src := rng.New(sweepSeedFor(eng.opt.Seed, it))
	edges := eng.el.Edges
	ms := eng.ms
	stop := eng.stop
	swapped := eng.swapped
	allowMulti := eng.opt.Space.AllowsMulti()
	pairs := m / 2
	stats := IterStats{Attempts: int64(pairs)}
	var local, newly int64
	for k := 0; k < pairs; k++ {
		if stop != nil && k&2047 == 0 && stop.Stopped() {
			// Committed proposals are individually valid states of the
			// space, so a partial sweep leaves the edge list (and ms)
			// consistent; statistics for the interrupted iteration are
			// dropped, as in the parallel step.
			return IterStats{}, true
		}
		i := int(src.Uint64n(uint64(m)))
		j := int(src.Uint64n(uint64(m)))
		if i == j {
			continue
		}
		e, f := edges[i], edges[j]
		coin := src.Bool()
		g, h := rewirePair(e, f, coin)
		og, oh := rewirePair(e, f, !coin)
		ek, fk := e.Key(), f.Key()
		gk, hk := g.Key(), h.Key()
		if sameKeyPair(gk, hk, ek, fk) {
			// Identity outcome: the proposed state is the current one.
			continue
		}
		if !allowMulti && (gk == hk || ms.Count(gk) > 0 || ms.Count(hk) > 0) {
			// Out of space: the move would create a parallel pair (or a
			// duplicated loop, which counts as one).
			continue
		}
		// Forward realization count: instance pairs with keys {ek, fk},
		// times the coin degeneracy (2 iff both coins give this outcome).
		var nf float64
		if ek == fk {
			w := float64(ms.Count(ek))
			nf = w * (w - 1) / 2
		} else {
			nf = float64(ms.Count(ek)) * float64(ms.Count(fk))
		}
		if sameKeyPair(gk, hk, og.Key(), oh.Key()) {
			nf *= 2
		}
		// Backward realization count, evaluated in the proposed state:
		// the new keys are disjoint from {ek, fk}, so their multiplicity
		// there is the current one plus what the move adds. The reverse
		// pair's two coin outcomes are exactly {e, f} and this move's
		// other outcome, so c_b = 2 iff the other outcome is an identity.
		var nb float64
		if gk == hk {
			w := float64(ms.Count(gk))
			nb = (w + 2) * (w + 1) / 2
		} else {
			nb = float64(ms.Count(gk)+1) * float64(ms.Count(hk)+1)
		}
		if sameKeyPair(og.Key(), oh.Key(), ek, fk) {
			nb *= 2
		}
		if nb < nf && src.Float64() >= nb/nf {
			continue
		}
		ms.RemoveEdge(e)
		ms.RemoveEdge(f)
		ms.AddEdge(g)
		ms.AddEdge(h)
		edges[i], edges[j] = g, h
		if swapped != nil {
			if swapped[i] == 0 {
				swapped[i] = 1
				newly++
			}
			if swapped[j] == 0 {
				swapped[j] = 1
				newly++
			}
		}
		local++
	}
	stats.Successes = local
	eng.swappedCount += newly
	if swapped != nil {
		stats.EverSwapped = eng.EverSwappedFraction()
	}
	if eng.rec != nil {
		eng.rec.FlushIteration(stats.Attempts, stats.Successes, stats.EverSwapped)
	}
	return stats, false
}

// rewirePair returns the coin's endpoint pairing of (e, f); both
// pairings preserve all four endpoint degrees.
//
//nullgraph:hotpath
func rewirePair(e, f graph.Edge, coin bool) (graph.Edge, graph.Edge) {
	if coin {
		return graph.Edge{U: e.U, V: f.U}, graph.Edge{U: e.V, V: f.V}
	}
	return graph.Edge{U: e.U, V: f.V}, graph.Edge{U: e.V, V: f.U}
}
