package directed

import (
	"nullgraph/internal/hashtable"
	"nullgraph/internal/par"
	"nullgraph/internal/permute"
	"nullgraph/internal/rng"
	"nullgraph/internal/swap"
)

// SwapOptions configures a directed swap run; fields mirror the
// undirected swap.Options.
type SwapOptions struct {
	Iterations   int
	Workers      int
	Seed         uint64
	Probing      hashtable.Probing
	TrackSwapped bool
	// Stop, when non-nil, is checked between iterations; a tripped flag
	// ends the run early with swap.Result.Stopped set, leaving the arc
	// list valid (joint degrees preserved) but under-mixed.
	// Cancellation latency is bounded by one iteration.
	Stop *par.Stop
}

// SwapEngine is the directed analog of Algorithm III.1, with the two
// "certain considerations" the paper defers to [14], [15]:
//
//   - a pair of arcs (u→v), (x→y) has exactly ONE legal exchange,
//     (u→y), (x→v) — the undirected algorithm's second pairing would
//     turn arc heads into tails and change in/out degrees — so the
//     pairing coin is replaced by a *lazy* coin: each paired exchange
//     is proposed with probability 1/2. Without it the sweep applies
//     every legal exchange of a pairing in lockstep, and on small arc
//     sets (where the random pairing covers all arcs) the chain can
//     only make composite moves: on the 4-vertex out=in=1 space the
//     state space then decomposes into four communicating classes
//     (each 4-cycle can only reach its inverse), a bias the
//     statistical verification suite (internal/statcheck) catches.
//     The lazy coin makes every single-pair exchange reachable, which
//     restores the classic chain's connectivity, and laziness never
//     hurts reversibility. The hash table stores ordered pairs;
//   - pair exchanges alone do NOT connect the simple-digraph space (the
//     two orientations of a directed 3-cycle have no legal pair move
//     between them), so each iteration also sweeps disjoint arc
//     *triples* and reverses any that form a directed triangle
//     (u→v→w→u ⇒ u←v←w←u), the classic second move type of directed
//     switch chains (Rao et al.; Erdős–Miklós–Toroczkai).
//
// Like the undirected engine, a SwapEngine owns its iteration buffers
// (hash-table writer counters, permutation targets and scratch, padded
// per-worker accumulators), so steady-state Steps do not allocate. It
// dispatches parallel regions with per-call goroutines rather than a
// persistent pool — the directed chain is an extension, not the
// benchmarked hot path — so there is nothing to Close.
type SwapEngine struct {
	al  *ArcList
	opt SwapOptions
	p   int

	table   *hashtable.EdgeSet
	writers []*hashtable.Writer

	swapped      []uint8
	swappedCount int64

	h       []int32
	sc      *permute.Scratch
	apArcs  *permute.Applier[Arc]
	apFlags *permute.Applier[uint8]

	successes []par.Cell
	newly     []par.Cell

	// coins holds one lazy-coin stream per worker, reseeded each
	// iteration so steady-state Steps do not allocate.
	coins []*rng.Source

	iteration int
}

// NewSwapEngine prepares an engine that mutates al in place.
func NewSwapEngine(al *ArcList, opt SwapOptions) *SwapEngine {
	p := par.Workers(opt.Workers)
	m := len(al.Arcs)
	eng := &SwapEngine{al: al, opt: opt, p: p}
	if m >= 2 {
		// Worst case insertions per iteration: m registrations + 2 per
		// pair proposal + 3 per triple proposal = 3m. Counting-only
		// writers: occupancy always lands above the journal/sweep
		// crossover (see the hashtable package doc), so ClearWriters
		// sweeps.
		eng.table = hashtable.New(3*m, opt.Probing)
		eng.writers = eng.table.NewCountingWriters(p)
		eng.h = make([]int32, m)
	}
	eng.sc = permute.NewScratch()
	eng.apArcs = permute.NewApplier[Arc](eng.sc)
	eng.apFlags = permute.NewApplier[uint8](eng.sc)
	eng.successes = make([]par.Cell, p)
	eng.newly = make([]par.Cell, p)
	eng.coins = make([]*rng.Source, p)
	for w := range eng.coins {
		eng.coins[w] = rng.New(0)
	}
	if opt.TrackSwapped {
		eng.swapped = make([]uint8, m)
	}
	return eng
}

// EverSwappedFraction reports the mixing tracker — O(1), accumulated
// from each sweep's newly set flags.
func (eng *SwapEngine) EverSwappedFraction() float64 {
	if len(eng.swapped) == 0 {
		return 0
	}
	return float64(eng.swappedCount) / float64(len(eng.swapped))
}

// markSwapped sets flag i, counting first-time transitions.
func (eng *SwapEngine) markSwapped(i int, newly *int64) {
	if eng.swapped[i] == 0 {
		eng.swapped[i] = 1
		*newly++
	}
}

// Iterate runs one Step unless the stop flag has tripped, which it
// reports instead; it makes the engine a swap.Chain, so the undirected
// driver (swap.Drive) runs the directed chain too.
func (eng *SwapEngine) Iterate() (swap.IterStats, bool) {
	if eng.opt.Stop.Stopped() {
		return swap.IterStats{}, true
	}
	return eng.Step(), false
}

// Step runs one full iteration: register all arcs, permute, propose the
// single legal exchange per adjacent pair, reverse disjoint directed
// triangles, clear the table.
func (eng *SwapEngine) Step() swap.IterStats {
	arcs := eng.al.Arcs
	m := len(arcs)
	it := eng.iteration
	eng.iteration++
	if m < 2 {
		return swap.IterStats{}
	}
	p := eng.p

	par.ForRange(m, p, func(w int, r par.Range) {
		wtr := eng.writers[w]
		for i := r.Begin; i < r.End; i++ {
			wtr.TestAndSet(arcs[i].Key())
		}
	})

	permSeed := rng.Mix64(eng.opt.Seed) + 0x9e3779b97f4a7c15*uint64(it+1)
	h := eng.h[:m]
	permute.TargetsInto(permSeed, p, h)
	eng.apArcs.Apply(arcs, h, p, nil)
	if eng.swapped != nil {
		eng.apFlags.Apply(eng.swapped, h, p, nil)
	}

	sweepSeed := rng.Mix64(eng.opt.Seed) ^ rng.Mix64(uint64(it)+0xabcd0123)
	pairs := m / 2
	stats := swap.IterStats{Attempts: int64(pairs)}
	for w := range eng.successes {
		eng.successes[w].V = 0
		eng.newly[w].V = 0
	}
	par.ForRange(pairs, p, func(w int, r par.Range) {
		wtr := eng.writers[w]
		coin := eng.coins[w]
		coin.Reseed(rng.Mix64(sweepSeed) ^ rng.Mix64(uint64(w)+0x5134))
		var local, newly int64
		for k := r.Begin; k < r.End; k++ {
			// Lazy coin: draw first so every pair consumes exactly one
			// bit and the stream stays aligned across rejections.
			lazy := coin.Bool()
			i, j := 2*k, 2*k+1
			a, b := arcs[i], arcs[j]
			g := Arc{From: a.From, To: b.To}
			hh := Arc{From: b.From, To: a.To}
			if lazy || g.IsLoop() || hh.IsLoop() {
				continue
			}
			if wtr.TestAndSet(g.Key()) {
				continue
			}
			if wtr.TestAndSet(hh.Key()) {
				continue
			}
			arcs[i], arcs[j] = g, hh
			if eng.swapped != nil {
				eng.markSwapped(i, &newly)
				eng.markSwapped(j, &newly)
			}
			local++
		}
		eng.successes[w].V = local
		eng.newly[w].V = newly
	})
	for w := range eng.successes {
		stats.Successes += eng.successes[w].V
		eng.swappedCount += eng.newly[w].V
	}

	// Triple sweep: reverse disjoint directed triangles. The pair sweep
	// above already updated `arcs`; reversal proposals test against the
	// same table, which still holds every arc that existed this
	// iteration plus the pair-swap insertions — a conservative filter
	// that can only reject, never corrupt.
	triples := m / 3
	for w := range eng.successes {
		eng.successes[w].V = 0
		eng.newly[w].V = 0
	}
	par.ForRange(triples, p, func(w int, r par.Range) {
		wtr := eng.writers[w]
		var local, newly int64
		for k := r.Begin; k < r.End; k++ {
			i, j, l := 3*k, 3*k+1, 3*k+2
			a, b, c := arcs[i], arcs[j], arcs[l]
			if a.To != b.From || b.To != c.From || c.To != a.From {
				continue // not a directed triangle in this order
			}
			if a.From == b.From || b.From == c.From || a.From == c.From {
				continue // degenerate (repeated vertex)
			}
			ra := Arc{From: a.To, To: a.From}
			rb := Arc{From: b.To, To: b.From}
			rc := Arc{From: c.To, To: c.From}
			if wtr.TestAndSet(ra.Key()) {
				continue
			}
			if wtr.TestAndSet(rb.Key()) {
				continue
			}
			if wtr.TestAndSet(rc.Key()) {
				continue
			}
			arcs[i], arcs[j], arcs[l] = ra, rb, rc
			if eng.swapped != nil {
				eng.markSwapped(i, &newly)
				eng.markSwapped(j, &newly)
				eng.markSwapped(l, &newly)
			}
			local++
		}
		eng.successes[w].V = local
		eng.newly[w].V = newly
	})
	for w := range eng.successes {
		stats.Successes += eng.successes[w].V
		eng.swappedCount += eng.newly[w].V
	}
	stats.Attempts += int64(triples)

	if eng.swapped != nil {
		stats.EverSwapped = eng.EverSwappedFraction()
	}
	eng.table.ClearWriters(eng.writers, p)
	return stats
}

// SwapArcs performs opt.Iterations directed double-arc swap iterations
// on al in place.
func SwapArcs(al *ArcList, opt SwapOptions) swap.Result {
	res, _ := swap.Drive(NewSwapEngine(al, opt), swap.Budget(opt.Iterations))
	return res
}
